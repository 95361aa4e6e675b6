(** Runtime event counters for the RMI system.

    The paper's Tables 4, 6 and 8 report per-application statistics:
    reused objects, local/remote RPCs, megabytes allocated by
    deserialization, and cycle-table lookups.  A [Metrics.t] is one
    table of atomic cells — one per {!counter}, then the batch-size and
    latency histogram buckets — so that machines running in separate
    domains can update it concurrently.  Writers pass a {!counter} to
    {!add}; readers take a {!snapshot}, whose fields carry the
    counters' names. *)

type t

(** A point-in-time copy of all counters. *)
type snapshot = {
  remote_rpcs : int;      (** RMIs whose target lived on another machine *)
  local_rpcs : int;       (** RMIs whose target happened to be local *)
  reused_objs : int;      (** decoded objects a reuse arena recycled *)
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

(** One constructor per [int] field of {!snapshot}, named after it.

    The transport counters (reliability, crash and failover, batching,
    wire-path and arena telemetry) never touch the logical-traffic
    counters of messages and bytes sent: those count each logical message
    once (a batch envelope as one message carrying the sum of its
    payloads), so lossless, reliable and unbatched runs report
    byte-identical paper-table traffic.  Only the adaptive tier touches
    the tiering counters and only a parallel fabric's workers the
    dispatch-pool counters, so ahead-of-time and [Sync] runs keep
    byte-identical output. *)
type counter =
  | Remote_rpcs | Local_rpcs | Reused_objs | New_bytes | Cycle_lookups
  | Ser_invocations | Msgs_sent | Bytes_sent | Type_bytes | Allocs
  | Retries | Timeouts | Dup_drops | Acks_sent
  | Crashes | Restarts | Heartbeats_sent | Stale_drops | Suspects
  | Peer_downs | Call_retries | Failovers | Breaker_fastfails
  | Reply_cache_hits
  | Batches_sent | Batched_msgs | Unbatched_msgs | Outstanding_hwm
  | Tier_promotions | Tier_deopts | Plan_cache_hits | Plan_cache_misses
  | Bytes_copied | Pool_hits | Pool_misses
  | Arena_allocs | Arena_resets | Arena_fallbacks
  | Dispatches | Queue_rejects | Steals | Queue_depth_hwm

val create : unit -> t

(** [add t c n] adds [n] to counter [c]; adding 0 touches nothing.

    The per-object paper counters (cycle lookups, allocations, reuse,
    type bytes, dynamic invocations, arena hand-outs) are bumped several
    times per marshaled node.  A codec context, cycle table or arena —
    used by one thread at a time — tallies them in plain [int] fields
    and adds each tally here once, when the outermost operation returns
    or raises: one atomic add per counter per call instead of one per
    node, with the same totals at every point a caller can observe.  A
    dispatch-pool worker likewise adds its tally once, as it exits. *)
val add : t -> counter -> int -> unit

(** [raise_max t c v] raises high-water mark [c] (most async calls
    simultaneously awaiting replies on one node, or the deepest node
    request queue) to [v] if it is a new maximum. *)
val raise_max : t -> counter -> int -> unit

(** [record_batch t ~msgs] accounts one flushed envelope that carried
    [msgs] logical messages: updates the histogram and either the
    unbatched count (singleton) or the batch and batched-message
    counts. *)
val record_batch : t -> msgs:int -> unit

(** [record_latency_ns t ns] counts one completed call whose
    client-observed round trip took [ns] nanoseconds.  Every completed
    call records one; only the load experiment prints the histogram. *)
val record_latency_ns : t -> int -> unit

(** [record_site_call t ~callsite] counts one adaptive-tier dispatch at
    [callsite]; read back in {!snapshot}'s [site_calls]. *)
val record_site_call : t -> callsite:int -> unit

val snapshot : t -> snapshot

val zero : snapshot

(** [diff later earlier] subtracts counter-wise. *)
val diff : snapshot -> snapshot -> snapshot

(** [merge a b] adds counter-wise; used to combine per-machine metrics. *)
val merge : snapshot -> snapshot -> snapshot

(** [strip_timing s] is [s] with the latency histogram zeroed — the one
    field whose contents depend on wall-clock timing rather than the
    seeded schedule on a Sim fabric run under [Sync].  Determinism tests
    there compare [strip_timing a = strip_timing b] and check the
    (deterministic) sample count with [lat_count] separately.  Over Sock
    or across domains the ARQ counters follow the thread schedule too,
    so two stripped snapshots of one seed may differ. *)
val strip_timing : snapshot -> snapshot

val pp : Format.formatter -> snapshot -> unit
