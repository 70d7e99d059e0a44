//! Blocking client for `qucad-serve` (used by the load generator and the
//! integration tests).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};

use crate::codec::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, ServeStats,
};

/// One connection to a server.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Sends one request without waiting for its response (pipelining).
    ///
    /// # Errors
    ///
    /// Returns the write error.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_request(request))
    }

    /// Receives the next response, in server completion order (match a
    /// pipelined stream back up by `request_id`).
    ///
    /// # Errors
    ///
    /// Fails on a closed connection or an undecodable frame.
    pub fn recv(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one request and waits for one response (no pipelining).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::send`] / [`Self::recv`] errors.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Pipelines a set of eval requests and collects every response,
    /// keyed by `request_id`. Server completion order is arbitrary
    /// (batches finish per structure group); the map restores it.
    ///
    /// # Errors
    ///
    /// Fails on transport errors; an in-band [`Response::Error`] is
    /// returned in the map, not raised.
    pub fn eval_all(&mut self, requests: &[Request]) -> io::Result<HashMap<u64, Response>> {
        for r in requests {
            debug_assert!(
                matches!(r, Request::Eval { .. }),
                "eval_all takes Eval requests"
            );
            self.send(r)?;
        }
        let mut responses = HashMap::with_capacity(requests.len());
        for _ in 0..requests.len() {
            let resp = self.recv()?;
            let id = match &resp {
                Response::Scores { request_id, .. }
                | Response::MatchResult { request_id, .. }
                | Response::StatsReport { request_id, .. }
                | Response::Error { request_id, .. }
                | Response::ShuttingDown { request_id } => *request_id,
            };
            responses.insert(id, resp);
        }
        Ok(responses)
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response type.
    pub fn stats(&mut self, request_id: u64) -> io::Result<ServeStats> {
        match self.call(&Request::Stats { request_id })? {
            Response::StatsReport { stats, .. } => Ok(stats),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected StatsReport, got {other:?}"),
            )),
        }
    }

    /// Asks the server to shut down cleanly; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response type.
    pub fn shutdown(&mut self, request_id: u64) -> io::Result<()> {
        match self.call(&Request::Shutdown { request_id })? {
            Response::ShuttingDown { .. } => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected ShuttingDown, got {other:?}"),
            )),
        }
    }
}
