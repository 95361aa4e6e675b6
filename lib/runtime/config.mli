(** Optimization configurations — the rows of every table in the
    paper's evaluation (Section 5's legend). *)

type serializer =
  | Class_specific
      (** per-class generated serializers (KaRMI/Manta state of the
          art): compact type ids, dynamic dispatch, cycle table always *)
  | Site_specific
      (** the paper's call-site specialized marshalers *)

type transport =
  | Raw
      (** the paper's Myrinet/GM assumption: lossless in-order
          delivery.  All paper-reproduction tables run on this. *)
  | Reliable
      (** link-level ack/retransmit with at-most-once delivery; the
          runtime survives drops, duplication, reordering and
          corruption (see {!Rmi_net.Reliable} and DESIGN.md's
          "Reliability substitution") *)

(** How a node obtains the specialized serialization plans (PR 4). *)
type tier =
  | Aot
      (** ahead of time: every site uses its compiled plan from call
          one — the paper's static model, and the seed's behaviour *)
  | Adaptive
      (** every site starts on the generic plan, is promoted to its
          specialized plan after {!t.hot_threshold} invocations, and is
          deoptimized (position widened to the dynamic step) when a
          runtime value breaks the plan's static promise *)

(** Promotion threshold used by the presets (8 invocations). *)
val default_hot_threshold : int

(** Client-side failure policy (PR 3): how long a call may take end to
    end, how often the node re-sends a request after the transport gave
    up, and when a persistently failing peer trips the circuit
    breaker. *)
type failover = {
  call_deadline : float;
      (** seconds a [call_async] may stay unresolved before it fails
          with [Rpc_timeout]; overridable per call *)
  max_call_retries : int;
      (** RPC-level resends (each restarting the transport's full
          retransmit budget) before the call fails with [Peer_down] *)
  breaker_threshold : int;
      (** consecutive transport-level failures to one peer before its
          circuit breaker opens *)
  breaker_cooldown : float;
      (** seconds an open breaker fast-fails new calls before letting a
          probe call through (half-open) *)
  reply_cache_cap : int;
      (** server-side reply-cache entries kept for request dedup;
          oldest entries are evicted first *)
}

val default_failover : failover

type t = {
  name : string;  (** the paper's row label, e.g. "site + reuse" *)
  serializer : serializer;
  elide_cycle : bool;  (** honor the cycle analysis verdict (Sec. 3.2) *)
  reuse : bool;  (** honor the escape analysis verdict (Sec. 3.3) *)
  transport : transport;
  batching : bool;
      (** coalesce small same-destination requests/replies into one
          envelope (the {!Rmi_net.Batching} layer); off for every
          paper-table preset so the sequential accounting is
          untouched *)
  failover : failover;
      (** client-side deadline/retry/breaker policy; only consulted by
          the failure paths, so fault-free runs are unaffected *)
  tier : tier;
      (** [Aot] for every paper-table preset, so the published numbers
          are untouched; [Adaptive] turns on hot-site promotion and
          deoptimization *)
  hot_threshold : int;
      (** invocations of one call site before the adaptive tier
          promotes it to the specialized plan *)
  arena : bool;
      (** decode served arguments into a recycling arena and reclaim
          them wholesale after dispatch when the plan's [non_escaping]
          escape-analysis verdict licenses it (PR 10).  On for every
          preset — reply bytes are identical either way, only the
          allocator changes; [legacy_heap] turns the GC-heap decode
          path back on for the [alloc] differential experiment *)
  domains : int;
      (** worker domains serving a [Fabric.Parallel] fabric's machines
          1..n-1 (the dispatch pool, the one parallel runtime).  [0]
          — the preset default — gives one worker per served machine,
          and a worker that owns one machine runs its serve loop: the
          paper's one thread draining each machine's network.  [>= 1]
          caps the workers at that many (never more than the served
          machines); a worker that owns several machines polls them
          through bounded per-node queues with admission control and
          work stealing *)
  queue_depth : int;
      (** per-node request-queue capacity at a worker that polls
          several machines; requests arriving at a full queue are
          rejected with a typed busy reply the client retries under
          its deadline *)
}

(** Per-node queue capacity used by the presets (64 requests). *)
val default_queue_depth : int

val class_ : t
val site : t
val site_cycle : t
val site_reuse : t
val site_reuse_cycle : t

(** The five rows in paper order (all on the [Raw] transport). *)
val all : t list

(** Same optimization row, but over the reliable transport. *)
val with_reliable : t -> t

(** Same optimization row, with request/reply batching enabled. *)
val with_batching : t -> t

(** Same optimization row, with this failure policy. *)
val with_failover : failover -> t -> t

(** Same optimization row on the adaptive tier: sites warm up on the
    generic plan and specialize once hot. *)
val with_adaptive : ?hot_threshold:int -> t -> t

(** Same optimization row with this tier (threshold unchanged). *)
val with_tier : tier -> t -> t

(** Same optimization row with the given decode-arena mode. *)
val with_arena : bool -> t -> t

(** Same optimization row decoding on the GC heap (pre-PR-10 allocator;
    used as the baseline by the [alloc] experiment). *)
val legacy_heap : t -> t

(** [with_domains n t] serves a parallel fabric with at most [n]
    worker domains ([n = 0]: one per served machine, each a serve
    loop); [queue_depth] bounds each polled machine's request queue
    before admission control rejects.  Raises [Invalid_argument] on a
    negative [n] or a [queue_depth] < 1. *)
val with_domains : ?queue_depth:int -> int -> t -> t

val find : string -> t option
val pp : Format.formatter -> t -> unit
