//! Request sequences run as waves: a task whose steps are sets of
//! independent requests (a scrub's reads, a cleaner's rewrite steps, a
//! rebuild's phases, a raw batch). [`Waves`] runs one as an
//! [`OpDriver`]: each wave is sent together, and once all its replies
//! are in, the task computes the next wave from them.

use super::{Completion, Effect, OpDriver, OpOutput, Token};
use crate::error::CsarError;
use crate::proto::{Request, Response, ServerId};

/// One wave: requests sent together, replied to in any order.
pub type Wave = Vec<(ServerId, Request)>;

/// A request sequence computed wave by wave.
pub trait WaveTask {
    /// The next wave, from the replies to the last one in request order
    /// (none at the start). Effects pushed to `fx` (counters, timers) are
    /// issued before the wave. An empty wave ends the task.
    fn next(&mut self, replies: Vec<Response>, fx: &mut Vec<Effect>) -> Result<Wave, CsarError>;
}

impl<F: FnMut(Vec<Response>, &mut Vec<Effect>) -> Result<Wave, CsarError>> WaveTask for F {
    fn next(&mut self, replies: Vec<Response>, fx: &mut Vec<Effect>) -> Result<Wave, CsarError> {
        self(replies, fx)
    }
}

/// Runs a [`WaveTask`] to its end; the task holds the results (the op's
/// output is `Written { bytes: 0 }`).
pub struct Waves<T> {
    /// The task.
    pub task: T,
    /// Replies to the wave in flight, in request order.
    slots: Vec<Option<Response>>,
    missing: usize,
    /// Token of the wave's first request (tokens stay unique per op).
    base: Token,
    done: bool,
}

impl<T: WaveTask> Waves<T> {
    /// A driver for `task`.
    pub fn new(task: T) -> Self {
        Self { task, slots: Vec::new(), missing: 0, base: 0, done: false } // alloc-ok: empty, no heap
    }

    fn end(&mut self, mut fx: Vec<Effect>, res: Result<OpOutput, CsarError>) -> Vec<Effect> {
        self.done = true;
        fx.push(Effect::Done(res));
        fx
    }
}

impl<T: WaveTask> OpDriver for Waves<T> {
    fn poll(&mut self, c: Completion) -> Vec<Effect> {
        let mut fx = Vec::new(); // alloc-ok: maintenance, a few effects per wave
        if self.done {
            return fx;
        }
        match c {
            Completion::Begin => {}
            Completion::Reply { token, resp } => {
                let slot = token.checked_sub(self.base).and_then(|i| self.slots.get_mut(i as usize));
                let Some(slot @ None) = slot else {
                    let e = format!("unknown or duplicate reply for wave token {token}");
                    return self.end(fx, Err(CsarError::Transport(e)));
                };
                *slot = Some(resp);
                self.missing -= 1;
                if self.missing > 0 {
                    return fx;
                }
            }
            Completion::ComputeDone { token } => {
                return self.end(fx, Err(CsarError::Protocol(format!("waves issue no compute, got {token}"))));
            }
        }
        let replies: Vec<Response> = self.slots.drain(..).flatten().collect();
        self.base += replies.len() as Token;
        match self.task.next(replies, &mut fx) {
            Ok(wave) if wave.is_empty() => self.end(fx, Ok(OpOutput::Written { bytes: 0 })),
            Ok(wave) => {
                (self.missing, self.slots) = (wave.len(), wave.iter().map(|_| None).collect());
                let base = self.base;
                let sends = wave.into_iter().enumerate();
                fx.extend(sends.map(|(i, (srv, req))| Effect::Send { token: base + i as Token, srv, req }));
                fx
            }
            Err(e) => self.end(fx, Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two waves of two requests: the second is sent only once both
    /// replies to the first are in, whatever their order, with fresh
    /// tokens; a reply to a token of the finished wave fails the op.
    #[test]
    fn waves_wait_for_every_reply_and_refuse_stale_tokens() {
        let mut seen = Vec::new();
        let mut d = Waves::new(|replies: Vec<Response>, _: &mut Vec<Effect>| {
            seen.push(replies.len());
            Ok(if seen.len() < 3 { vec![(0, Request::GetStats), (1, Request::GetStats)] } else { vec![] })
        });
        let tokens = |fx: Vec<Effect>| -> Vec<Token> {
            fx.into_iter().filter_map(|e| if let Effect::Send { token, .. } = e { Some(token) } else { None }).collect()
        };
        let reply = |token| Completion::Reply { token, resp: Response::Done { bytes: 0 } };
        assert_eq!(tokens(d.poll(Completion::Begin)), [0, 1]);
        assert!(d.poll(reply(1)).is_empty(), "half a wave is no wave");
        assert_eq!(tokens(d.poll(reply(0))), [2, 3]);
        let stale = d.poll(reply(0));
        assert!(matches!(stale.as_slice(), [Effect::Done(Err(CsarError::Transport(_)))]), "{stale:?}");
        assert!(d.poll(reply(2)).is_empty(), "a finished op is inert");
        drop(d);
        assert_eq!(seen, [0, 2], "the task saw the start and one whole wave");
    }
}
