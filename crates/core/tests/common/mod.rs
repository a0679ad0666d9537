//! The synchronous in-memory cluster the protocol tests share: real
//! `IoServer`s behind one request counter.

use csar_core::proto::{Request, Response, ServerId};
use csar_core::server::{Effect, IoServer, ServerConfig};
use csar_core::CsarError;

pub struct MiniCluster {
    pub servers: Vec<IoServer>,
    /// Fail-stopped servers: they answer `ServerDown`.
    pub down: Vec<bool>,
    pub next_req: u64,
}

impl MiniCluster {
    pub fn new(n: u32, cfg: ServerConfig) -> Self {
        Self {
            servers: (0..n).map(|i| IoServer::new(i, cfg)).collect(),
            down: vec![false; n as usize],
            next_req: 0,
        }
    }

    /// One synchronous request/reply exchange as request number
    /// `next_req`, which every call consumes.
    pub fn exchange(&mut self, srv: ServerId, req: Request) -> Response {
        let req_id = self.next_req;
        self.next_req += 1;
        if self.down[srv as usize] {
            return Response::Err(CsarError::ServerDown(srv));
        }
        let mut effects = self.servers[srv as usize].handle(0, req_id, req);
        assert_eq!(effects.len(), 1, "single-client requests reply immediately");
        let Effect::Reply { req_id: rid, resp, .. } = effects.pop().unwrap();
        assert_eq!(rid, req_id, "single-client exchange got a foreign reply");
        resp
    }
}
