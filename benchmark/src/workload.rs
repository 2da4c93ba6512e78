//! The five workloads: fixed topologies, seeded inputs. Nothing here
//! touches the program; a workload is data (who is coupled to whom, which
//! payloads are sent in which order) that `driver` plays against it.

use crate::rng::SplitMix64;

/// The payload of one generated user event, or one mutated attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// `TextCommitted` on a text field / its `text` attribute.
    Text(String),
    /// `ValueChanged` on a slider / its `value` attribute.
    Value(f64),
}

/// Which widget an event workload couples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Widget {
    /// A text field; events are `TextCommitted` with a 16–48-byte text.
    TextField,
    /// A slider; events are `ValueChanged` with a value in `[0, 1)`.
    Slider,
}

/// What a workload's rounds are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Coupled user events under floor control.
    Events {
        /// Disjoint couple groups; all of them have a round in flight at
        /// once (lock-step batches).
        groups: usize,
        /// Members per group: one actor, the rest followers.
        members: usize,
        /// The coupled widget.
        widget: Widget,
        /// Whether the actor alternates between the first two members
        /// (otherwise it is always the first).
        alternate: bool,
    },
    /// A presenter pushing a form's state onto a coupled group of
    /// viewers: three `copy_to` after a one-attribute change, then one
    /// `undo`, repeating.
    StateSync {
        /// Viewers, mutually coupled on `board`.
        viewers: usize,
    },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Normative name.
    pub name: &'static str,
    /// Why the workload exists: which layers it exercises and which
    /// optimisations it must *not* respond to.
    pub why: &'static str,
    /// `ServerCore` shards behind the router.
    pub shards: usize,
    /// Further connections that register and then stay silent.
    pub parked: usize,
    /// Name of the input stream. Workloads with the same stream process
    /// byte-identical inputs for equal seeds.
    pub stream: &'static str,
    /// What a round is.
    pub shape: Shape,
}

/// Parked connections of `idle_herd` in a `--smoke` window.
pub const SMOKE_PARKED: usize = 32;

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pair_event",
        why: "2 connections, one coupled text field, 1 round in flight: smallest frames and fan-out 1, so the fixed per-message cost of every hop dominates; bypasses delta, fan-out and sweep scaling",
        shards: 1,
        parked: 0,
        stream: "pair_event",
        shape: Shape::Events { groups: 1, members: 2, widget: Widget::TextField, alternate: true },
    },
    Workload {
        name: "classroom_fanout",
        why: "1 teacher + 15 students coupled on one slider (49 frames per round): group locking, encode-once frames, send_batch and vectored flush do the work; the slowest of 15 legs sets deliver time",
        shards: 1,
        parked: 0,
        stream: "classroom_fanout",
        shape: Shape::Events { groups: 1, members: 16, widget: Widget::Slider, alternate: false },
    },
    Workload {
        name: "state_sync",
        why: "presenter pushes a ~60-node form onto 4 coupled viewers, 3 copy_to then 1 undo: multi-KB frames up and deltas down; diff, state_version, shared state encode and HistoryStore dominate",
        shards: 1,
        parked: 0,
        stream: "state_sync",
        shape: Shape::StateSync { viewers: 4 },
    },
    Workload {
        name: "idle_herd",
        why: "pair_event's exact event stream while 1000 registered connections sit silent on the same host: the only difference is connection state, so the ratio to pair_event isolates the O(connections) sweep",
        shards: 1,
        parked: 1000,
        stream: "pair_event",
        shape: Shape::Events { groups: 1, members: 2, widget: Widget::TextField, alternate: true },
    },
    Workload {
        name: "multi_group",
        why: "8 disjoint pairs on 4 shards in lock-step batches, 8 rounds in flight: the only live multi-shard router, and 8 rounds share each poll-loop park; the dispatch thread stays ~95% idle (known gap)",
        shards: 4,
        parked: 0,
        stream: "multi_group",
        shape: Shape::Events { groups: 8, members: 2, widget: Widget::TextField, alternate: true },
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Connections that take part in rounds.
    pub fn active_connections(&self) -> usize {
        match self.shape {
            Shape::Events { groups, members, .. } => groups * members,
            Shape::StateSync { viewers } => viewers + 1,
        }
    }

    /// Rounds in flight at once.
    pub fn in_flight(&self) -> usize {
        match self.shape {
            Shape::Events { groups, .. } => groups,
            Shape::StateSync { .. } => 1,
        }
    }

    /// File descriptors the workload needs in this process: per
    /// connection the client socket, the host's socket and the host's
    /// control duplicate of it, plus slack for the listener, std streams
    /// and report files.
    pub fn fds_needed(&self, parked: usize) -> u64 {
        3 * (self.active_connections() + parked) as u64 + 64
    }

    /// The generator behind the workload's inputs: a function of the
    /// seed and the stream name alone.
    pub fn rng(&self, seed: u64) -> SplitMix64 {
        // FNV-1a of the stream name keeps the streams of different
        // workloads apart under one seed.
        let salt = self.stream.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        SplitMix64::new(seed ^ salt)
    }
}

/// The path of the coupled widget in every event-workload client.
pub const EVENT_WIDGET: &str = "root.field";

/// The widget tree of an event-workload client.
pub fn event_ui_spec(widget: Widget) -> &'static str {
    match widget {
        Widget::TextField => "form root title=\"pair\" {\n  textfield field text=\"\"\n}\n",
        Widget::Slider => "form root title=\"classroom\" {\n  slider field value=0.0\n}\n",
    }
}

/// The widget tree of a parked connection.
pub const PARKED_UI_SPEC: &str = "form root title=\"parked\" {\n}\n";

/// The next event payload for `widget`.
pub fn next_payload(rng: &mut SplitMix64, widget: Widget) -> Payload {
    match widget {
        Widget::TextField => {
            let len = rng.range(16, 48) as usize;
            Payload::Text(rng.letters(len))
        }
        Widget::Slider => Payload::Value(rng.unit()),
    }
}

/// The path of the form `state_sync` transfers.
pub const BOARD: &str = "board";

/// One leaf widget of the [`Board`].
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// Dotted path from the root.
    pub path: String,
    /// Its kind.
    pub widget: Widget,
    /// The value of its relevant attribute in the spec.
    pub initial: Payload,
}

/// A seeded form tree and the leaves a mutation can pick.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    /// UI-spec source; every `state_sync` client builds its tree from it.
    pub ui_spec: String,
    /// Every leaf, in spec order.
    pub leaves: Vec<Leaf>,
    /// Widgets in the tree.
    pub nodes: usize,
}

/// Containers nest this deep; their leaves sit one level below.
const BOARD_DEPTH: usize = 5;

/// Builds the depth-6 form: a binary tree of containers down to depth 5,
/// one leaf in each — 31 containers, 31 leaves. Leaf kinds, texts and
/// values come from `rng`.
pub fn board(rng: &mut SplitMix64) -> Board {
    fn leaf(rng: &mut SplitMix64, out: &mut Board, path: &str, name: &str, indent: &str) {
        let widget = if rng.below(4) == 0 { Widget::Slider } else { Widget::TextField };
        let initial = match widget {
            Widget::TextField => {
                let len = rng.range(24, 56) as usize;
                let text = rng.letters(len);
                out.ui_spec.push_str(&format!("{indent}textfield {name} text=\"{text}\"\n"));
                Payload::Text(text)
            }
            Widget::Slider => {
                // Six decimals, so the spec text holds the exact value.
                let value = (rng.unit() * 1e6).floor() / 1e6;
                out.ui_spec.push_str(&format!("{indent}slider {name} value={value:.6}\n"));
                Payload::Value(value)
            }
        };
        out.leaves.push(Leaf { path: format!("{path}.{name}"), widget, initial });
        out.nodes += 1;
    }
    fn container(rng: &mut SplitMix64, out: &mut Board, path: &str, name: &str, depth: usize) {
        let indent = "  ".repeat(depth - 1);
        let kind = if depth == 1 { "form" } else { "panel" };
        let title = rng.letters(12);
        out.ui_spec.push_str(&format!("{indent}{kind} {name} title=\"{title}\" {{\n"));
        out.nodes += 1;
        let path = if path.is_empty() { name.to_owned() } else { format!("{path}.{name}") };
        leaf(rng, out, &path, "v", &format!("{indent}  "));
        if depth < BOARD_DEPTH {
            container(rng, out, &path, "a", depth + 1);
            container(rng, out, &path, "b", depth + 1);
        }
        out.ui_spec.push_str(&format!("{indent}}}\n"));
    }
    let mut out = Board { ui_spec: String::new(), leaves: Vec::new(), nodes: 0 };
    container(rng, &mut out, "", BOARD, 1);
    out
}

/// One step of the `state_sync` cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum StateOp {
    /// Change one attribute of leaf `leaf` on the presenter, then
    /// `copy_to` the viewers.
    Copy {
        /// Index into [`Board::leaves`].
        leaf: usize,
        /// The attribute's new value.
        payload: Payload,
    },
    /// `undo` the last copy on the viewers.
    Undo,
}

/// Copies between two undos.
pub const COPIES_PER_UNDO: u64 = 3;

/// Step number `step` (from 0) of the cycle.
pub fn next_state_op(rng: &mut SplitMix64, board: &Board, step: u64) -> StateOp {
    if step % (COPIES_PER_UNDO + 1) == COPIES_PER_UNDO {
        return StateOp::Undo;
    }
    let leaf = rng.below(board.leaves.len() as u64) as usize;
    StateOp::Copy { leaf, payload: next_payload(rng, board.leaves[leaf].widget) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_stream(w: &Workload, seed: u64, n: usize) -> Vec<u8> {
        let Shape::Events { widget, .. } = w.shape else { panic!("not an event workload") };
        let mut rng = w.rng(seed);
        let mut bytes = Vec::new();
        for _ in 0..n {
            match next_payload(&mut rng, widget) {
                Payload::Text(s) => bytes.extend_from_slice(s.as_bytes()),
                Payload::Value(x) => bytes.extend_from_slice(&x.to_bits().to_le_bytes()),
            }
            bytes.push(0);
        }
        bytes
    }

    #[test]
    fn equal_seeds_give_identical_inputs_and_different_seeds_do_not() {
        for w in WORKLOADS.iter().filter(|w| matches!(w.shape, Shape::Events { .. })) {
            assert_eq!(event_stream(w, 1994, 500), event_stream(w, 1994, 500), "{}", w.name);
            assert_ne!(event_stream(w, 1994, 500), event_stream(w, 1995, 500), "{}", w.name);
        }
        let sync = Workload::by_name("state_sync").unwrap();
        let script = |seed| {
            let mut rng = sync.rng(seed);
            let b = board(&mut rng);
            let ops: Vec<StateOp> = (0..200).map(|i| next_state_op(&mut rng, &b, i)).collect();
            (b, ops)
        };
        assert_eq!(script(7), script(7));
        assert_ne!(script(7).0.ui_spec, script(8).0.ui_spec);
        assert_ne!(script(7).1, script(8).1);
    }

    #[test]
    fn idle_herd_and_pair_event_share_one_event_stream() {
        let pair = Workload::by_name("pair_event").unwrap();
        let herd = Workload::by_name("idle_herd").unwrap();
        for seed in [0, 1, 1994, u64::MAX] {
            assert_eq!(event_stream(&pair, seed, 2000), event_stream(&herd, seed, 2000));
        }
        assert_eq!((pair.shape, pair.shards), (herd.shape, herd.shards));
        assert_eq!((pair.parked, herd.parked), (0, 1000));
        // ... and nobody else's.
        let multi = Workload::by_name("multi_group").unwrap();
        assert_ne!(event_stream(&pair, 1, 100), event_stream(&multi, 1, 100));
    }

    #[test]
    fn payloads_have_the_stated_sizes() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..2000 {
            match next_payload(&mut rng, Widget::TextField) {
                Payload::Text(s) => assert!((16..=48).contains(&s.len())),
                other => panic!("{other:?}"),
            }
            match next_payload(&mut rng, Widget::Slider) {
                Payload::Value(x) => assert!((0.0..1.0).contains(&x)),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn the_board_is_a_depth_six_tree_of_about_sixty_nodes() {
        let b = board(&mut SplitMix64::new(1994));
        assert_eq!((b.nodes, b.leaves.len()), (62, 31));
        let deepest = b.leaves.iter().map(|l| l.path.split('.').count()).max().unwrap();
        assert_eq!(deepest, 6);
        assert!(b.leaves.iter().any(|l| l.widget == Widget::Slider));
        assert!(b.leaves.iter().any(|l| l.widget == Widget::TextField));
    }

    #[test]
    fn the_state_cycle_is_three_copies_then_an_undo() {
        let mut rng = SplitMix64::new(5);
        let b = board(&mut rng);
        let kinds: Vec<bool> =
            (0..8).map(|i| matches!(next_state_op(&mut rng, &b, i), StateOp::Undo)).collect();
        assert_eq!(kinds, [false, false, false, true, false, false, false, true]);
    }

    #[test]
    fn topology_numbers_follow_the_shapes() {
        let by = |n| Workload::by_name(n).unwrap();
        assert_eq!(by("classroom_fanout").active_connections(), 16);
        assert_eq!(by("state_sync").active_connections(), 5);
        assert_eq!(
            (by("multi_group").active_connections(), by("multi_group").in_flight()),
            (16, 8)
        );
        assert_eq!(by("idle_herd").fds_needed(1000), 3 * 1002 + 64);
        assert!(Workload::by_name("nope").is_none());
    }
}
