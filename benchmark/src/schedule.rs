//! Seeded randomness and the open-loop arrival schedule.

use std::time::Duration;

/// splitmix64: the harness's own generator, so the input order and the
/// arrival schedule depend on `--seed` and nothing in the code under
/// test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named sub-stream of a seed (one connection,
    /// one phase), so streams do not shift when another is added.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times of one open-loop connection: independent users arriving at
/// `rate_per_s`, so gaps are exponential (a Poisson stream).
#[derive(Debug, Clone)]
pub struct OpenSchedule {
    rng: Rng,
    mean_gap_s: f64,
    next_due_s: f64,
}

impl OpenSchedule {
    pub fn new(rng: Rng, rate_per_s: f64) -> OpenSchedule {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        let mut schedule = OpenSchedule {
            rng,
            mean_gap_s: 1.0 / rate_per_s,
            next_due_s: 0.0,
        };
        schedule.advance();
        schedule
    }

    fn advance(&mut self) {
        self.next_due_s += -self.rng.unit().ln() * self.mean_gap_s;
    }

    /// The next due time (since the phase started), consuming it.
    pub fn next_due(&mut self) -> Duration {
        let due = Duration::from_secs_f64(self.next_due_s);
        self.advance();
        due
    }
}

/// How one open-loop request is accounted. It is *due* at `due`; the
/// generator could only send it at `sent` (the connection was still
/// busy, or the thread woke late); it completed at `done`. Latency runs
/// from the due time, so the wait a stall imposes on later requests
/// counts against the system; lateness is reported separately so a slow
/// generator cannot hide in the latency.
pub fn open_loop_account(due: Duration, sent: Duration, done: Duration) -> (f64, f64) {
    let latency_us = done.saturating_sub(due).as_secs_f64() * 1e6;
    let late_us = sent.saturating_sub(due).as_secs_f64() * 1e6;
    (latency_us, late_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_the_rate_is_honoured() {
        let mut a = OpenSchedule::new(Rng::stream(7, 1), 400.0);
        let mut b = OpenSchedule::new(Rng::stream(7, 1), 400.0);
        let mut c = OpenSchedule::new(Rng::stream(8, 1), 400.0);
        let due_a: Vec<Duration> = (0..4000).map(|_| a.next_due()).collect();
        let due_b: Vec<Duration> = (0..4000).map(|_| b.next_due()).collect();
        let due_c: Vec<Duration> = (0..4000).map(|_| c.next_due()).collect();
        assert_eq!(due_a, due_b);
        assert_ne!(due_a, due_c);
        assert!(due_a.windows(2).all(|w| w[0] < w[1]), "due times increase");
        // 4000 arrivals at 400/s take 10 s, within a few percent.
        let span = due_a.last().unwrap().as_secs_f64();
        assert!((9.0..11.0).contains(&span), "span {span}");
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let ms = Duration::from_millis;
        // Sent on time: latency is the plain round trip, no lateness.
        assert_eq!(open_loop_account(ms(10), ms(10), ms(12)), (2000.0, 0.0));
        // The connection was still busy until 15 ms: the request is
        // sent 5 ms late and its latency still counts from 10 ms.
        assert_eq!(open_loop_account(ms(10), ms(15), ms(17)), (7000.0, 5000.0));
        // A generator that wakes early never reports negative lateness.
        assert_eq!(open_loop_account(ms(10), ms(9), ms(12)).1, 0.0);
    }

    #[test]
    fn a_busy_connection_delays_every_request_queued_behind_it() {
        // Three requests due 1 ms apart on a connection whose first
        // request stalls for 10 ms; each later one is sent the moment
        // the connection frees up and takes 1 ms.
        let ms = Duration::from_millis;
        let mut free_at = Duration::ZERO;
        let mut late = Vec::new();
        let mut latency = Vec::new();
        for (due, service) in [(ms(0), ms(10)), (ms(1), ms(1)), (ms(2), ms(1))] {
            let sent = due.max(free_at);
            let done = sent + service;
            free_at = done;
            let (l, d) = open_loop_account(due, sent, done);
            latency.push(l);
            late.push(d);
        }
        assert_eq!(late, [0.0, 9000.0, 9000.0]);
        assert_eq!(latency, [10000.0, 10000.0, 10000.0]);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::stream(3, 0);
        assert!((0..1000).all(|_| rng.below(64) < 64));
        assert!((0..1000).all(|_| {
            let u = rng.unit();
            u > 0.0 && u <= 1.0
        }));
    }
}
