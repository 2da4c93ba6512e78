//! `cosoft-rng` — the workspace's one seeded random stream and the
//! property runner built on it. No dependencies.
//!
//! [`Rng`] is SplitMix64. Everything seeded in the workspace draws from
//! it — the simulated network's latencies and faults, the baseline
//! workloads, every randomized test — so a seed named anywhere (a test
//! name, a failing property's report, CHANGES.md) means one stream.
//!
//! [`forall`] runs a property over a range of seeds. A generator is a
//! plain `fn(&mut Rng) -> T`; a property is a closure that panics
//! (`assert!`) when it does not hold. A failure names the property and
//! the seed, so replaying it is `forall(seed..seed + 1, ..)` in source:
//! no environment variable, no regression file. The failing case is
//! minimised by truncating the random tape: after `n` draws the
//! generator reads zeros, so lists end and choices take their first
//! arm, and the smallest `n` that still fails is reported.

// An order that reaches an output must come from a source, not from a
// hash map's random keys (DESIGN.md §7.1).
#![deny(clippy::iter_over_hash_type)]

use std::any::Any;
use std::fmt::Debug;
use std::ops::{Bound, Range, RangeBounds, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A SplitMix64 stream: a function of its seed alone.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    /// Draws taken so far, and how many there are: past `tape` every draw
    /// is zero. Only the minimiser of [`forall`] makes it finite.
    drawn: u64,
    tape: u64,
}

/// The integer types [`Rng::range`] draws.
pub trait Int: Copy {
    /// Smallest value, the lower end of an unbounded range.
    const MIN: Self;
    /// Largest value, the upper end of an unbounded range.
    const MAX: Self;
    /// Lossless widening.
    fn widen(self) -> i128;
    /// Narrowing of a value known to be in range.
    fn narrow(wide: i128) -> Self;
}

macro_rules! int {
    ($($t:ty)*) => {$(
        impl Int for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
            fn widen(self) -> i128 {
                self as i128
            }
            fn narrow(wide: i128) -> $t {
                wide as $t
            }
        }
    )*};
}
int!(u8 u16 u32 u64 usize i32 i64);

impl Rng {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng::on_tape(seed, u64::MAX)
    }

    fn on_tape(seed: u64, tape: u64) -> Rng {
        Rng { state: seed, drawn: 0, tape }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        if self.drawn == self.tape {
            return 0;
        }
        self.drawn += 1;
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One draw reduced into `range` (`next % span`; the bias is far
    /// below anything a test here could see). `..` is any value of `T`.
    ///
    /// # Panics
    ///
    /// If `range` is empty.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        if let (Bound::Unbounded, Bound::Unbounded) = (range.start_bound(), range.end_bound()) {
            return T::narrow(i128::from(self.next_u64())); // the low bits: zero stays zero
        }
        let lo = match range.start_bound() {
            Bound::Included(v) => v.widen(),
            Bound::Excluded(v) => v.widen() + 1,
            Bound::Unbounded => T::MIN.widen(),
        };
        let hi = match range.end_bound() {
            Bound::Included(v) => v.widen(),
            Bound::Excluded(v) => v.widen() - 1,
            Bound::Unbounded => T::MAX.widen(),
        };
        assert!(lo <= hi, "Rng::range: empty range");
        let span = (hi - lo) as u128 + 1;
        T::narrow(lo + (u128::from(self.next_u64()) % span) as i128)
    }

    /// One draw as a float in `[0, 1)`: its top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// One element of `from`.
    ///
    /// # Panics
    ///
    /// If `from` is empty.
    pub fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.range(0..from.len())]
    }

    /// A list of `gen`'s draws, its length uniform in `len`. Whether
    /// there is one more element is drawn before each, so a list on a
    /// spent tape ends at once.
    pub fn vec<T>(&mut self, len: Range<usize>, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < len.start || self.range(0..len.end - out.len()) != 0 {
            out.push(gen(self));
        }
        out
    }

    /// A string of `len` characters, each one of `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: RangeInclusive<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        self.vec(*len.start()..len.end() + 1, |r| *r.pick(&alphabet)).into_iter().collect()
    }
}

/// A falsified property: the seed of the failing case, how many draws
/// its generator took, the fewest leading draws that still fail, and
/// what the property panicked with on the full tape.
struct Failure {
    seed: u64,
    draws: u64,
    minimal: u64,
    panic: Box<dyn Any + Send>,
}

/// Runs `prop` on the case `gen` draws from each seed until one fails,
/// then minimises that case.
fn falsify<T>(
    seeds: Range<u64>,
    gen: &impl Fn(&mut Rng) -> T,
    prop: &impl Fn(T),
) -> Option<Failure> {
    // The case of `seed` on `tape` draws: how many it took, how it fared.
    let run = |seed: u64, tape: u64| {
        let mut rng = Rng::on_tape(seed, tape);
        let case = gen(&mut rng);
        (rng.drawn, catch_unwind(AssertUnwindSafe(|| prop(case))))
    };
    for seed in seeds {
        if let (draws, Err(panic)) = run(seed, u64::MAX) {
            // Upwards: the first failure is the smallest, the runs before silent.
            let minimal = (0..draws).find(|&tape| run(seed, tape).1.is_err()).unwrap_or(draws);
            return Some(Failure { seed, draws, minimal, panic });
        }
    }
    None
}

/// Checks that `prop` holds (does not panic) on the case `gen` draws
/// from every seed in `seeds`.
///
/// # Panics
///
/// With the first failing case's own panic, after printing the property
/// (the function the closure is written in), the seed, the case and its
/// minimised form to standard error. `forall(seed..seed + 1, gen, prop)`
/// replays it.
pub fn forall<T: Debug>(seeds: Range<u64>, gen: impl Fn(&mut Rng) -> T, prop: impl Fn(T)) {
    let Some(Failure { seed, draws, minimal, panic }) = falsify(seeds, &gen, &prop) else {
        return;
    };
    let name = std::any::type_name_of_val(&prop).trim_end_matches("::{{closure}}");
    let case = |tape| gen(&mut Rng::on_tape(seed, tape));
    eprintln!("property `{name}` failed at seed {seed} ({draws} draws): {:?}", case(u64::MAX));
    eprintln!("minimised to its first {minimal} draws: {:?}", case(minimal));
    eprintln!("replay: forall({seed}..{}, ..)", seed.wrapping_add(1));
    resume_unwind(panic);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed recorded anywhere in the repository names this stream.
    #[test]
    fn stream_is_the_reference_splitmix64() {
        let mut rng = Rng::new(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first, [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]);
    }

    #[test]
    fn range_covers_its_bounds_and_nothing_else() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.range(0..5usize)] = true;
            assert!((-3..=3).contains(&rng.range(-3..=3i64)));
            assert!((0.0..1.0).contains(&rng.f64()));
        }
        assert_eq!(seen, [true; 5]);
        // The whole type, either end.
        let all: Vec<u8> = (0..2000).map(|_| rng.range(..)).collect();
        assert!(all.contains(&0) && all.contains(&255));
        assert_eq!(rng.range(7..=7u64), 7);
        assert_eq!(rng.range(i64::MIN..=i64::MIN), i64::MIN);
    }

    #[test]
    fn a_spent_tape_reads_zeros() {
        let mut rng = Rng::on_tape(9, 2);
        assert!(rng.next_u64() != 0 && rng.next_u64() != 0);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.range(3..9u32), 3);
        assert_eq!(rng.pick(&["first", "second"]), &"first");
        assert!(rng.vec(0..4, |r| r.next_u64()).is_empty());
        assert_eq!(rng.string("xyz", 1..=3), "x");
        assert_eq!(rng.drawn, 2);
    }

    fn message(panic: &(dyn Any + Send)) -> String {
        match (panic.downcast_ref::<String>(), panic.downcast_ref::<&str>()) {
            (Some(s), _) => s.clone(),
            (_, Some(s)) => (*s).to_owned(),
            _ => String::new(),
        }
    }

    /// A planted bug: the property refuses any list holding a value of
    /// 200 or more.
    fn list(rng: &mut Rng) -> Vec<u8> {
        rng.vec(0..40, |r| r.range(..))
    }
    fn small(list: Vec<u8>) {
        let at = list.iter().position(|&v| v >= 200);
        assert!(at.is_none(), "value {} at {}", list[at.unwrap()], at.unwrap());
    }

    #[test]
    fn a_failure_names_a_seed_that_replays_and_a_tape_no_longer() {
        assert!(falsify(0..1000, &list, &|_| ()).is_none());
        let found = falsify(0..1000, &list, &small).expect("the planted bug is found");
        assert!(found.minimal <= found.draws, "{} of {}", found.minimal, found.draws);
        // Minimal: the list ends with its first large value.
        let case = list(&mut Rng::on_tape(found.seed, found.minimal));
        let (last, before) = case.split_last().expect("a failing list is not empty");
        assert!(*last >= 200 && before.iter().all(|&v| v < 200), "{case:?}");
        assert_eq!(found.minimal, 2 * case.len() as u64);
        // The seed alone replays the failure, through the public door.
        let again = catch_unwind(|| forall(found.seed..found.seed + 1, list, small))
            .expect_err("the seed fails again");
        assert_eq!(message(&*again), message(&*found.panic));
        assert!(message(&*again).starts_with("value "), "{}", message(&*again));
        // And no earlier seed does.
        forall(0..found.seed, list, small);
    }
}
