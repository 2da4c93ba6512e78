//! The server's counters, declared once: [`ServerStats`] and everything
//! derived from its field list.

#[cfg(doc)]
use super::LivenessConfig;
#[cfg(doc)]
use cosoft_wire::Message;

/// Declares [`ServerStats`] from one field list: the struct, how each
/// field merges across shard cores (`sum`, or `max` for a high-water
/// mark) and the `(name, value)` listing all come from the line that
/// declares the field.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $merge:ident $name:ident: $ty:ty,)*) => {
        /// Snapshot of the server's observability counters: floor control,
        /// locking, broadcast fan-out, and state-transfer liveness.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl ServerStats {
            /// Merges another core's counters into this snapshot (used by
            /// the shard router to expose one aggregate [`ServerStats`]):
            /// sums everything except high-water marks, which take the
            /// maximum.
            pub fn merge(&mut self, other: &ServerStats) {
                $(server_stats!(@$merge self.$name, other.$name);)*
            }

            /// Every field as `(name, value)`, in declaration order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name as u64)),*]
            }
        }
    };
    (@sum $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
}

server_stats! {
    /// Events granted by floor control.
    sum events_granted: u64,
    /// Events rejected (permission or lock conflict).
    sum events_rejected: u64,
    /// Rejections caused specifically by a lock conflict.
    sum lock_conflicts: u64,
    /// `PermissionDenied` replies sent.
    sum permission_denials: u64,
    /// Total messages produced for delivery.
    sum messages_out: u64,
    /// Largest fan-out produced by a single incoming message.
    max max_fanout: usize,
    /// State-transfer groups started (copies, undos, redos).
    sum transfers_started: u64,
    /// Transfer groups that completed successfully.
    sum transfers_completed: u64,
    /// Transfer groups that finished with an error (including peers
    /// dying mid-transfer).
    sum transfers_failed: u64,
    /// Currently registered instances (bound + quarantined).
    sum registered_instances: usize,
    /// Transfer groups still in flight.
    sum live_transfer_groups: usize,
    /// Push legs (`ApplyState` awaiting `StateApplied`) still in flight.
    sum live_transfer_legs: usize,
    /// Pull legs (`StateRequest` awaiting `StateReply`) still in flight.
    sum live_pending_pulls: usize,
    /// Multiple-execution groups still awaiting `ExecuteDone`s.
    sum live_execs: usize,
    /// Locks currently held.
    sum held_locks: usize,
    /// `Ping` probes answered.
    sum pings: u64,
    /// Instances placed in quarantine after a disconnect or idle timeout.
    sum quarantines: u64,
    /// Quarantined instances successfully resumed via `Rejoin`.
    sum resumes: u64,
    /// `Rejoin` attempts refused (unknown or expired token).
    sum rejoins_rejected: u64,
    /// Quarantines that expired into a full deregistration.
    sum quarantine_expiries: u64,
    /// Instances currently quarantined.
    sum quarantined_instances: usize,
    /// Messages of a kind the server never accepts from clients
    /// (server-to-client-only kinds arriving inbound); each one is
    /// answered with an [`Message::ErrorReply`] rather than dropped.
    sum unexpected_messages: u64,
    /// Shared frames encoded on the outgoing path — each counts one
    /// encode regardless of how many endpoints it reaches.
    sum shared_frames_encoded: u64,
    /// Per-endpoint deliveries served by shared frames.
    sum shared_deliveries: u64,
    /// Bytes encoded into shared frames (counted once per frame).
    sum shared_bytes_encoded: u64,
    /// Bytes handed to transports via shared frames (counted once per
    /// delivery); the gap to `shared_bytes_encoded` is what encode-once
    /// saved over the old clone-and-re-encode fan-out.
    sum shared_bytes_delivered: u64,
    /// Heavy payloads (event bodies, state snapshots) serialized.
    sum payload_encodes: u64,
    /// Fan-out legs that spliced an already-serialized heavy payload
    /// into their frame instead of re-encoding it.
    sum payload_reuses: u64,
    /// `tick` calls whose `now_us` was earlier than the stored virtual
    /// clock. The clock is clamped (it never rewinds — a rewind would
    /// re-arm quarantine grace periods and idle timeouts), and each
    /// regression is counted here so a misbehaving time source is
    /// observable instead of silent.
    sum clock_regressions: u64,
    /// Control-class messages shed by admission control.
    sum overload_sheds_control: u64,
    /// Bulk-class messages shed by admission control.
    sum overload_sheds_bulk: u64,
    /// [`Message::Busy`] replies sent (at most one per endpoint per
    /// budget window, so this counts advisory notifications, not sheds).
    sum busy_replies: u64,
    /// Endpoints evicted via §3.2 auto-decoupling after sustained
    /// admission-control abuse (strikes exhausted).
    sum overload_evictions: u64,
    /// Quarantine entries expired *early* because
    /// [`LivenessConfig::max_quarantined`] was reached (oldest-deadline
    /// first). Disjoint from `quarantine_expiries`, which counts
    /// on-time expiries.
    sum quarantine_store_evictions: u64,
    /// Endpoints currently holding an admission budget window (gauge,
    /// bounded by pruning of idle windows).
    sum overload_tracked_endpoints: usize,
    /// Objects whose history stacks were purged on the teardown path
    /// (instance deregistration or an `ObjectDestroyed` notification).
    sum history_purges: u64,
    /// Fan-out legs sent as attribute-level `ApplyDelta` (the destination
    /// held a matching sync base) instead of a full `ApplyState`.
    sum delta_legs_sent: u64,
    /// Delta legs the receiver refused (diverged or unknown base) that
    /// were resent as full snapshots.
    sum delta_fallbacks: u64,
    /// Delta legs whose destination acknowledged by reference: what the
    /// apply overwrote was the base the delta was diffed against, so the
    /// reply named it and the history filed the server's own encoding.
    sum acks_by_reference: u64,
    /// Pushes that arrived as a `CopyDelta` and were rebuilt from the
    /// source's sync base.
    sum pushes_by_delta: u64,
    /// `CopyDelta` pushes the server could not rebuild (no base, another
    /// version, edits that do not apply, a result that hashes otherwise)
    /// and pulled from the sender in full instead.
    sum push_fallbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::ServerStats;

    #[test]
    fn stats_merge_sums_counters_and_keeps_the_widest_fanout() {
        let mut a =
            ServerStats { events_granted: 2, max_fanout: 7, held_locks: 1, ..Default::default() };
        let b =
            ServerStats { events_granted: 3, max_fanout: 4, held_locks: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!((a.events_granted, a.max_fanout, a.held_locks), (5, 7, 3));
        let entries = a.entries();
        assert_eq!(entries[0], ("events_granted", 5));
        assert!(entries.contains(&("max_fanout", 7)) && entries.contains(&("held_locks", 3)));
    }
}
