//! The untraced load generators and the correctness gate every response
//! passes through.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use eie_serve::protocol::Response;
use eie_serve::{Client, ModelServer};

use crate::estimators::Sample;
use crate::schedule::{open_loop_account, OpenSchedule, Rng};
use crate::stack::{Prepared, POOL};

/// Requests attempted and requests that failed: refused, answered with
/// a typed error, lost to the transport, or answered with a wrong bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn fail(&mut self, workload: &str, request: u64, why: &str) {
        self.failed += 1;
        println!("FAIL workload={workload} request={request}: {why}");
    }

    /// Compares a response word for word against its golden; any
    /// difference is a failed request.
    pub fn check(
        &mut self,
        workload: &str,
        request: u64,
        golden: &[i16],
        got: impl ExactSizeIterator<Item = i16>,
    ) -> bool {
        self.attempted += 1;
        if got.len() != golden.len() {
            let why = format!("{} output words, golden has {}", got.len(), golden.len());
            self.fail(workload, request, &why);
            return false;
        }
        if let Some((word, (want, got))) = golden
            .iter()
            .zip(got)
            .enumerate()
            .find(|(_, (want, got))| *want != got)
        {
            let why = format!("word {word} is {got:#06x}, golden is {want:#06x}");
            self.fail(workload, request, &why);
            return false;
        }
        true
    }
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub tally: Tally,
}

impl Phase {
    fn merge(parts: Vec<Phase>) -> Phase {
        let mut merged = Phase::default();
        for part in parts {
            merged.samples.extend(part.samples);
            merged.tally.absorb(part.tally);
        }
        merged
    }
}

/// What a generator needs to know about the workload it drives.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub prepared: &'a Prepared,
    pub seed: u64,
    /// Lead-in plus the measured time.
    pub total: Duration,
    /// The model request 0 goes to. A cold workload must start on the
    /// model that is *not* resident, or its first request is a hit.
    pub first_model: usize,
}

impl Load<'_> {
    pub fn workload(&self) -> &str {
        &self.prepared.name
    }

    /// Request `n` of a connection goes to the next model in turn, so a
    /// two-model workload alternates.
    pub fn model(&self, n: u64) -> usize {
        ((n + self.first_model as u64) % self.prepared.specs.len() as u64) as usize
    }
}

/// Sends one request over `client`, verifies the answer, and returns
/// the server-reported numbers of a good one.
fn infer_checked(
    client: &mut Client,
    load: &Load<'_>,
    tally: &mut Tally,
    request: u64,
    model: usize,
    input: usize,
) -> Option<(f64, f64, u32)> {
    let name = &load.prepared.specs[model].name;
    match client.infer(name, &load.prepared.inputs[input]) {
        Ok(Response::Output(out)) => tally
            .check(
                load.workload(),
                request,
                &load.prepared.goldens[model][input],
                out.outputs.iter().copied(),
            )
            .then_some((out.latency_us, out.queue_us, out.coalesced)),
        Ok(other) => {
            tally.attempted += 1;
            tally.fail(load.workload(), request, &format!("answered {other:?}"));
            None
        }
        Err(e) => {
            tally.attempted += 1;
            tally.fail(load.workload(), request, &format!("transport: {e}"));
            None
        }
    }
}

pub fn connect(addr: SocketAddr, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| Client::connect(addr).expect("connect to the loopback listener"))
        .collect()
}

/// Answers warm-up requests `range` round-robin over the clients (and,
/// on a two-model workload, alternating between the models).
///
/// # Panics
///
/// Panics if one fails: there is nothing to measure on a stack that
/// cannot answer its warm-up.
pub fn warm(clients: &mut [Client], load: &Load<'_>, range: std::ops::Range<u64>) {
    let mut tally = Tally::default();
    for i in range {
        let slot = i as usize % clients.len();
        let (model, input) = (load.model(i), i as usize % POOL);
        infer_checked(&mut clients[slot], load, &mut tally, i, model, input);
    }
    assert_eq!(tally.failed, 0, "a warm-up request failed");
}

/// Runs one generator per client on its own thread, all released
/// together, and merges what they measured.
fn on_each_client(
    clients: &mut [Client],
    body: impl Fn(usize, &mut Client, Instant) -> Phase + Sync,
) -> Phase {
    let barrier = Barrier::new(clients.len());
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    body(conn, client, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    Phase::merge(parts)
}

/// Closed loop: every connection sends its next request when the
/// previous one is answered.
pub fn closed_loop(clients: &mut [Client], load: Load<'_>) -> Phase {
    on_each_client(clients, |conn, client, t0| {
        let mut rng = Rng::stream(load.seed, conn as u64);
        let mut phase = Phase::default();
        let mut idle_since = Duration::ZERO;
        for n in 0u64.. {
            let input = rng.below(POOL);
            let sent = t0.elapsed();
            if sent >= load.total {
                break;
            }
            let answer = infer_checked(client, &load, &mut phase.tally, n, load.model(n), input);
            let done = t0.elapsed();
            let Some((service_us, queue_us, coalesced)) = answer else {
                // A broken connection would fail every later request
                // instantly; one failure is enough to fail the run.
                break;
            };
            phase.samples.push(Sample {
                end_s: done.as_secs_f64(),
                latency_us: (done - sent).as_secs_f64() * 1e6,
                service_us,
                queue_us,
                coalesced,
                late_us: (sent - idle_since).as_secs_f64() * 1e6,
            });
            idle_since = done;
        }
        phase
    })
}

/// Open loop: every connection sends on its own seeded Poisson schedule
/// whether or not the system keeps up; latency runs from the due time.
pub fn open_loop(clients: &mut [Client], load: Load<'_>, rate_per_s: f64) -> Phase {
    on_each_client(clients, |conn, client, t0| {
        let mut order = Rng::stream(load.seed, 0x100 + conn as u64);
        let mut schedule =
            OpenSchedule::new(Rng::stream(load.seed, 0x200 + conn as u64), rate_per_s);
        let mut phase = Phase::default();
        for n in 0u64.. {
            let due = schedule.next_due();
            if due >= load.total {
                break;
            }
            let input = order.below(POOL);
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = t0.elapsed();
            let answer = infer_checked(client, &load, &mut phase.tally, n, load.model(n), input);
            let done = t0.elapsed();
            let Some((service_us, queue_us, coalesced)) = answer else {
                break;
            };
            let (latency_us, late_us) = open_loop_account(due, sent, done);
            phase.samples.push(Sample {
                end_s: done.as_secs_f64(),
                latency_us,
                service_us,
                queue_us,
                coalesced,
                late_us,
            });
        }
        phase
    })
}

/// In-process closed loop at a fixed concurrency: one generator thread
/// keeps `outstanding` submissions in flight on the model's server.
pub fn submit_loop(server: &Arc<ModelServer>, load: Load<'_>, outstanding: usize) -> Phase {
    let mut rng = Rng::stream(load.seed, 0);
    let mut phase = Phase::default();
    let mut in_flight = VecDeque::with_capacity(outstanding);
    let mut request = 0u64;
    let t0 = Instant::now();
    let mut slot_free_since = Duration::ZERO;
    loop {
        while in_flight.len() < outstanding && t0.elapsed() < load.total {
            let input = rng.below(POOL);
            let sent = t0.elapsed();
            let late_us = (sent - slot_free_since).as_secs_f64() * 1e6;
            match server.submit(&load.prepared.inputs[input]) {
                Ok(handle) => in_flight.push_back((handle, request, input, sent, late_us)),
                Err(e) => {
                    phase.tally.attempted += 1;
                    phase
                        .tally
                        .fail(load.workload(), request, &format!("refused: {e}"));
                }
            }
            request += 1;
        }
        // One worker drains the queue in order, so the oldest
        // submission is the next to complete.
        let Some((handle, request, input, sent, late_us)) = in_flight.pop_front() else {
            break;
        };
        let result = handle.wait();
        let done = t0.elapsed();
        slot_free_since = done;
        match result {
            Ok(result) => {
                let golden = &load.prepared.goldens[0][input];
                let words = result.outputs.iter().map(|v| v.raw());
                if phase.tally.check(load.workload(), request, golden, words) {
                    phase.samples.push(Sample {
                        end_s: done.as_secs_f64(),
                        latency_us: (done - sent).as_secs_f64() * 1e6,
                        service_us: result.latency_us,
                        queue_us: result.queue_us,
                        coalesced: result.coalesced as u32,
                        late_us,
                    });
                }
            }
            Err(e) => {
                phase.tally.attempted += 1;
                phase
                    .tally
                    .fail(load.workload(), request, &format!("failed: {e}"));
            }
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_output_word_is_caught() {
        let golden = [0x0100i16, -0x0080, 0x7fff, 0];
        let mut tally = Tally::default();
        assert!(tally.check("test", 0, &golden, golden.iter().copied()));
        let mut flipped = golden;
        flipped[2] ^= 1;
        assert!(!tally.check("test", 1, &golden, flipped.iter().copied()));
        assert!(!tally.check("test", 2, &golden, golden[..3].iter().copied()));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
