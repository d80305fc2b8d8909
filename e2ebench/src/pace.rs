//! Open-loop pacing: a seeded Poisson schedule, and a sender that times
//! each request from when it was *due*, so a stall that delays later sends
//! shows up in their latency instead of hiding in the generator.

use std::time::{Duration, Instant};

use crate::stats::SplitMix;

/// Arrival offsets of a Poisson process at `rate` per second over `span`,
/// ascending.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// When one paced request was due, sent and answered.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Position in the schedule.
    pub index: usize,
    /// Scheduled send instant.
    pub due: Instant,
    /// Actual send instant.
    pub sent: Instant,
    /// Instant the answer arrived.
    pub done: Instant,
    /// Whether the answer was a correct success.
    pub ok: bool,
}

impl Timing {
    /// Latency from the scheduled send, nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_duration_since(self.due).as_nanos() as u64
    }

    /// How late the generator sent, nanoseconds.
    pub fn lateness_ns(&self) -> u64 {
        self.sent.saturating_duration_since(self.due).as_nanos() as u64
    }

    /// Round trip from the actual send, nanoseconds.
    pub fn rtt_ns(&self) -> u64 {
        self.done.saturating_duration_since(self.sent).as_nanos() as u64
    }
}

/// Sends the scheduled requests `indices` (positions in `offsets`) one at
/// a time over one blocking channel: each waits for its due time, or goes
/// at once if an earlier answer kept it late. `send(i)` performs request
/// `i` and returns when it was sent — after any other traffic the channel
/// carried first — and whether it succeeded correctly.
pub fn drive_paced(
    start: Instant,
    offsets: &[Duration],
    indices: impl IntoIterator<Item = usize>,
    mut send: impl FnMut(usize) -> (Instant, bool),
) -> Vec<Timing> {
    let mut out = Vec::new();
    for index in indices {
        let due = start + offsets[index];
        sleep_until(due);
        let (sent, ok) = send(index);
        out.push(Timing {
            index,
            due,
            sent,
            done: Instant::now(),
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(7, 1000.0, Duration::from_secs(4));
        assert_eq!(a, poisson_schedule(7, 1000.0, Duration::from_secs(4)));
        assert_ne!(a, poisson_schedule(8, 1000.0, Duration::from_secs(4)));
        assert!((3700..4300).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_stalled_response_shows_in_latency_from_the_schedule() {
        // 40 arrivals 1 ms apart; the first answer stalls 30 ms, which holds
        // back the sends behind it on the same channel.
        let offsets: Vec<Duration> = (0..40).map(Duration::from_millis).collect();
        let timings = drive_paced(Instant::now(), &offsets, 0..40, |i| {
            let sent = Instant::now();
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            (sent, true)
        });
        let from_schedule: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        let from_send: Vec<u64> = timings.iter().map(Timing::rtt_ns).collect();
        let lateness: Vec<u64> = timings.iter().map(Timing::lateness_ns).collect();
        // Requests 1..30 were due during the stall and waited it out.
        assert!(
            percentile(&from_schedule, 50) >= 5_000_000,
            "{from_schedule:?}"
        );
        assert!(
            percentile(&from_schedule, 99) >= 29_000_000,
            "{from_schedule:?}"
        );
        assert!(percentile(&lateness, 50) >= 5_000_000, "{lateness:?}");
        // Timed from the actual send, the stall is invisible past request 0.
        assert!(percentile(&from_send, 50) < 5_000_000, "{from_send:?}");
    }
}
