(** Runtime event counters for the RMI system.

    The paper's Tables 4, 6 and 8 report per-application statistics:
    reused objects, local/remote RPCs, megabytes allocated by
    deserialization, and cycle-table lookups.  A [Metrics.t] holds one
    atomic counter per statistic so that machines running in separate
    domains can update them concurrently. *)

type t

(** A point-in-time copy of all counters. *)
type snapshot = {
  remote_rpcs : int;      (** RMIs whose target lived on another machine *)
  local_rpcs : int;       (** RMIs whose target happened to be local *)
  reused_objs : int;      (** objects recycled by the reuse cache *)
  new_bytes : int;        (** bytes allocated by deserialization *)
  cycle_lookups : int;    (** handle-table probes during (de)serialization *)
  ser_invocations : int;  (** dynamic calls into per-class serializers *)
  msgs_sent : int;        (** network messages *)
  bytes_sent : int;       (** network payload bytes *)
  type_bytes : int;       (** bytes of wire type information *)
  allocs : int;           (** objects allocated by deserialization *)
  retries : int;          (** frames retransmitted by the reliable transport *)
  timeouts : int;         (** frames abandoned after exhausting retransmits *)
  dup_drops : int;        (** duplicate frames suppressed by at-most-once dedup *)
  acks_sent : int;        (** link-level acknowledgements sent *)
  crashes : int;          (** simulated process crashes observed *)
  restarts : int;         (** simulated process restarts observed *)
  heartbeats_sent : int;  (** failure-detector pings and pongs sent *)
  stale_drops : int;      (** frames fenced for carrying an old incarnation *)
  suspects : int;         (** peers demoted Alive -> Suspect by the detector *)
  peer_downs : int;       (** peers confirmed Down by the detector *)
  call_retries : int;     (** RPC-level request resends after transport gave up *)
  failovers : int;        (** calls retargeted from a primary to its replica *)
  breaker_fastfails : int;(** calls failed immediately by an open circuit breaker *)
  reply_cache_hits : int; (** retried requests served from the reply cache *)
  batches_sent : int;     (** envelopes that coalesced >= 2 logical messages *)
  batched_msgs : int;     (** logical messages that travelled inside a batch *)
  unbatched_msgs : int;   (** logical messages that travelled alone *)
  outstanding_hwm : int;  (** pipelining high-water mark: most async calls
                              simultaneously awaiting replies on one node *)
  batch_hist : int array; (** flush-size histogram; see {!hist_bucket_label} *)
  tier_promotions : int;  (** call sites promoted generic -> specialized *)
  tier_deopts : int;      (** specialized plans abandoned on Type_confusion *)
  plan_cache_hits : int;  (** plan-store lookups answered from cache *)
  plan_cache_misses : int;(** plan-store lookups that forced a compile *)
  bytes_copied : int;     (** payload bytes physically copied on the wire path *)
  pool_hits : int;        (** buffer acquisitions served from the free list *)
  pool_misses : int;      (** buffer acquisitions that allocated fresh storage *)
  arena_allocs : int;     (** Value nodes handed out by decode arenas *)
  arena_resets : int;     (** wholesale arena reclaims after dispatch *)
  arena_fallbacks : int;  (** arena requests that fell back to the GC heap *)
  dispatches : int;       (** requests executed by dispatch-pool workers *)
  queue_rejects : int;    (** requests refused because a node queue was full *)
  steals : int;           (** tasks a worker took from another worker's nodes *)
  queue_depth_hwm : int;  (** deepest any node request queue ever got *)
  lat_hist : int array;   (** log2-bucketed call-latency histogram (ns); see
                              {!lat_bucket} and {!lat_quantile} *)
  site_calls : (int * int) list;
      (** adaptive-dispatch invocation counts per call site, sorted by
          callsite id with zero entries elided (canonical form, so
          snapshots compare with [=]) *)
}

(** Number of batch-size histogram buckets ([batch_hist] length). *)
val hist_buckets : int

(** Bucket index a flush of [size] messages is counted under. *)
val hist_bucket : int -> int

(** Human-readable size range of a bucket, e.g. ["5-8"]. *)
val hist_bucket_label : int -> string

(** Number of latency-histogram buckets ([lat_hist] length).  Bucket [i]
    counts latencies in [[2^i, 2^(i+1))] nanoseconds, so per-domain
    histograms merge by element-wise addition. *)
val lat_buckets : int

(** Bucket index a latency of [ns] nanoseconds is counted under. *)
val lat_bucket : int -> int

(** Inclusive upper bound of latency bucket [i], in nanoseconds. *)
val lat_bucket_upper_ns : int -> float

(** [lat_quantile hist q] estimates the [q]-quantile (0 < q <= 1) of a
    latency histogram as the upper bound of the bucket where the
    cumulative count crosses [q * total], in nanoseconds; [0.] when the
    histogram is empty.  Monotone in [q], so p50 <= p99 <= p999. *)
val lat_quantile : int array -> float -> float

(** Total number of samples recorded in a latency histogram. *)
val lat_count : int array -> int

val create : unit -> t

val reset : t -> unit

(** Counter increments; [n] defaults to 1 (or the byte count).  Adding 0
    touches nothing.

    The per-object paper counters (cycle lookups, allocations, reuse,
    type bytes, dynamic invocations, arena hand-outs) are bumped several
    times per marshaled node.  A codec context, cycle table or arena —
    used by one thread at a time — tallies them in plain [int] fields
    and adds each tally here once, when the outermost operation returns
    or raises: one atomic add per counter per call instead of one per
    node, with the same totals at every point a caller can observe. *)

val incr_remote_rpcs : t -> unit
val incr_local_rpcs : t -> unit
val add_reused_objs : t -> int -> unit
val add_new_bytes : t -> int -> unit
val add_cycle_lookups : t -> int -> unit
val incr_ser_invocations : t -> unit
val add_ser_invocations : t -> int -> unit
val incr_msgs_sent : t -> unit
val add_bytes_sent : t -> int -> unit
val add_type_bytes : t -> int -> unit
val incr_allocs : t -> unit
val add_allocs : t -> int -> unit

(** Reliable-transport counters.  These never touch the logical-traffic
    counters above: [msgs_sent]/[bytes_sent] count each logical message
    once, so the lossless reliable path reports byte-identical traffic
    to the raw path. *)

val incr_retries : t -> unit
val incr_timeouts : t -> unit
val incr_dup_drops : t -> unit
val incr_acks_sent : t -> unit

(** Crash, failure-detector and failover counters (PR 3).  Like the
    reliability counters they never touch the logical-traffic counters:
    heartbeats and fenced frames are transport plumbing, not messages. *)

val incr_crashes : t -> unit
val incr_restarts : t -> unit
val incr_heartbeats_sent : t -> unit
val incr_stale_drops : t -> unit
val incr_suspects : t -> unit
val incr_peer_downs : t -> unit
val incr_call_retries : t -> unit
val incr_failovers : t -> unit
val incr_breaker_fastfails : t -> unit
val incr_reply_cache_hits : t -> unit

(** Batching and pipelining counters.  Like the reliability counters,
    these never touch [msgs_sent]/[bytes_sent]: a batch envelope counts
    as one message whose bytes are the sum of its logical payloads, so
    unbatched runs report exactly the paper-table traffic. *)

(** [record_batch t ~msgs] accounts one flushed envelope that carried
    [msgs] logical messages: updates the histogram and either
    [unbatched_msgs] (singleton) or [batches_sent]/[batched_msgs]. *)
val record_batch : t -> msgs:int -> unit

(** One logical message sent outside the batching path. *)
val incr_unbatched : t -> unit

(** [record_outstanding t depth] raises the outstanding-call
    high-water mark to [depth] if it is a new maximum. *)
val record_outstanding : t -> int -> unit

(** Tiered-specialization counters (PR 4).  Only the adaptive tier
    touches them, so ahead-of-time runs keep byte-identical output. *)

val incr_tier_promotions : t -> unit
val incr_tier_deopts : t -> unit
val incr_plan_cache_hits : t -> unit
val incr_plan_cache_misses : t -> unit

(** Zero-copy wire-path telemetry (PR 5).  [bytes_copied] charges every
    physical payload copy made while framing, batching or buffering a
    message — the quantity the zero-copy path minimizes — while the pool
    counters account writer/reader free-list reuse.  Like the transport
    counters they never touch [msgs_sent]/[bytes_sent]. *)

val add_bytes_copied : t -> int -> unit
val incr_pool_hits : t -> unit
val incr_pool_misses : t -> unit

(** Arena telemetry (PR 10): Value-node recycling on the decode path.
    [arena_allocs] counts every node an arena hands out (recycled or
    fresh), [arena_fallbacks] the subset that had to come off the GC
    heap (cold pool or shape mismatch), [arena_resets] the wholesale
    end-of-dispatch reclaims escape analysis licensed. *)

val incr_arena_allocs : t -> unit
val add_arena_allocs : t -> int -> unit
val incr_arena_resets : t -> unit
val incr_arena_fallbacks : t -> unit
val add_arena_fallbacks : t -> int -> unit

(** Dispatch-pool telemetry.  Only a parallel fabric's worker domains
    touch the counters, so [Sync] runs keep byte-identical output; the
    latency histogram is recorded on every completed call but surfaced
    only by the load experiment.  A worker tallies its dispatches in a
    plain int and adds them once, as it exits. *)

val add_dispatches : t -> int -> unit
val incr_queue_rejects : t -> unit
val incr_steals : t -> unit

(** [record_queue_depth t depth] raises the queue-depth high-water mark
    to [depth] if it is a new maximum. *)
val record_queue_depth : t -> int -> unit

(** [record_latency_ns t ns] counts one completed call whose
    client-observed round trip took [ns] nanoseconds. *)
val record_latency_ns : t -> int -> unit

(** [record_site_call t ~callsite] counts one adaptive-tier dispatch at
    [callsite] and returns nothing; read back with {!site_call_count}. *)
val record_site_call : t -> callsite:int -> unit

(** Current invocation count for [callsite] (0 if never seen). *)
val site_call_count : t -> callsite:int -> int

val snapshot : t -> snapshot

val zero : snapshot

(** [diff later earlier] subtracts counter-wise. *)
val diff : snapshot -> snapshot -> snapshot

(** [merge a b] adds counter-wise; used to combine per-machine metrics. *)
val merge : snapshot -> snapshot -> snapshot

(** [strip_timing s] is [s] with the latency histogram zeroed — the one
    field whose contents depend on wall-clock timing rather than the
    seeded schedule.  Determinism tests compare
    [strip_timing a = strip_timing b] and check the (deterministic)
    sample count with [lat_count] separately. *)
val strip_timing : snapshot -> snapshot

val pp : Format.formatter -> snapshot -> unit
