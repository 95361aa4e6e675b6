(** Experiment driver reproducing the paper's Tables 1-8.

    Each timing table runs its application under the five optimization
    configurations and reports, per row: measured wall-clock seconds,
    {e modeled} seconds (event counters x the Myrinet-era cost model,
    see {!Rmi_net.Costmodel}), the gain over ["class"], and the paper's
    published seconds and gain for comparison.  Statistics tables
    (4/6/8) report the same counters the paper prints.

    Workload sizes default to values that finish in seconds on a
    laptop; [scale] switches to the paper's sizes. *)

type scale = Small | Paper

type row = {
  config : Rmi_runtime.Config.t;
  wall_seconds : float;
  modeled_seconds : float;
  stats : Rmi_stats.Metrics.snapshot;
}

type timing_table = {
  id : string;  (** "table1" .. "table7" *)
  title : string;
  unit_label : string;  (** "s" or "us/page" *)
  rows : row list;
  paper : (string * float) list;  (** the paper's numbers, row order *)
  per_unit : float -> float;  (** wall seconds -> reported unit *)
}

(** Gain over the ["class"] row, percent, by modeled seconds. *)
val modeled_gain : timing_table -> row -> float

val wall_gain : timing_table -> row -> float

(** Run an application under all five configs. *)

val table1 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table2 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table3 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table5 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table7 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table

(** The statistics tables reuse the timing runs of their sibling:
    table4 = stats of table3's rows, etc. *)

val stats_table :
  id:string -> title:string -> timing_table -> Paper_data.stats_row list ->
  string
(** Rendered paper-vs-measured statistics table. *)

(** {1 Differential gates}

    Each [*_compare] returns a {!Gate.t}: its rows, named checks and
    notes.  The command-line front ends print it, write it as JSON and
    exit 1 naming any failed check. *)

(** Run the two transmission microbenchmarks (Tables 1/2 workloads)
    under [site + reuse + cycle] in all three issue disciplines —
    sequential, pipelined futures, pipelined futures + batching — with
    [window] asynchronous calls in flight per burst (default 16).
    Batching shrinks [msgs_sent] — and with it the cost model's
    per-message latency charges — while every checksum stays equal
    (check [checksums_equal]).  [faults] (a seed and a link-fault
    profile) additionally runs every variant over the reliable
    transport with a seeded lossy schedule: the wire counters change,
    the checksums must not. *)
val pipeline_compare :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?window:int ->
  ?faults:int * Rmi_net.Fault_sim.profile ->
  unit ->
  Gate.t

(** Run a pipelined echo workload fault-free, under a seeded durable
    crash/restart of the server, and under the same schedule with an
    amnesiac server (its reply cache dies with it).  Checks:
    [durable_ok] — the durable row matches the fault-free checksum with
    no failed call; [replay_equal] — the durable schedule run twice
    reproduces its fault log and checksum byte-for-byte.  The amnesia
    row is where re-execution shows up. *)
val crash_compare :
  ?seed:int -> ?crashes:int -> ?calls:int -> ?window:int -> unit -> Gate.t

(** The durable exactly-once property over loopback TCP for one seed:
    a seeded chaos injector (lossy links, one durable kill/restart,
    TCP severs, endpoint stalls) under which no call fails, the
    checksum matches the closed form and the handler runs exactly once
    per boxed value.  [test/test_chaos.ml] drives this as a QCheck
    property; the chaos gate sweeps it over a seed range. *)
val chaos_exactly_once : ?calls:int -> ?window:int -> seed:int -> unit -> bool

(** The crash comparison lifted onto real sockets: the same echo
    workload over the loopback TCP mesh with the {!Rmi_net.Chaos}
    injector and the {!Rmi_net.Reliable} adapter.  Checks: [ok] —
    exactly-once on every row (the field shows the whole verdict, which
    the CI artifact check greps); [replay_equal] — the same-seed
    durable rerun replays the identical reply stream; [parity_equal] —
    the injector's frame schedule is byte-identical to the bare
    [Fault_sim] schedule; [sweep_failed] — no seed of the [sweep]-seed
    {!chaos_exactly_once} sweep (default 300) broke. *)
val chaos_compare :
  ?seed:int -> ?calls:int -> ?window:int -> ?sweep:int -> unit -> Gate.t

(** Run the same swap workload three ways: all-generic marshaling
    ([class]), the specialized plan from call one ([site + reuse +
    cycle], the paper's static model), and the adaptive tier (generic
    until [hot_threshold] calls, specialized after).  Per-window wire
    deltas give the warmup curve (the ["warmup"] table).  Checks:
    [replies_equal] — byte-identical replies across all three;
    [converged] — the adaptive run promoted and ends on AOT's per-call
    wire cost. *)
val tiers_compare :
  ?calls:int -> ?window:int -> ?hot_threshold:int -> unit -> Gate.t

(** Run the paper-table message shapes (Table 1's 100-cell chain,
    Table 2's 16x16 double matrix) over raw, reliable, batched and
    seeded-lossy-reliable links, each under the legacy copy-based
    framing and the zero-copy framing.  Every physical frame is
    digested on its way out (before the fault simulator).  Checks:
    [frames_ok] — the two framings are byte-identical on the wire,
    including under retransmission and batching; [results_ok] —
    identical replies; [gate_ok] — the enveloped variants copy >= 50%
    fewer bytes per call. *)
val wirecost_compare : ?calls:int -> ?window:int -> ?seed:int -> unit -> Gate.t

(** The checked-in pre-PR minor-words-per-call baseline for the gated
    row (matrix16x16, reliable, site+reuse+cycle) from BENCH_wire.json. *)
val alloc_baseline_minor : float

(** Run the paper-table message shapes through their site-specialized
    plans (the matrix through the flat struct-of-arrays step) over raw,
    reliable, seeded-lossy-reliable and reliable-with-reuse links, each
    under GC-heap decoding ([Config.legacy_heap]) and arena decoding.
    Checks: [frames_ok] and [results_ok] — byte-identical frames and
    reply checksums between the two allocator modes (the arena
    substitutes the allocator, never the bytes); [gate_ok] — the gated
    row spends <= 50% of {!alloc_baseline_minor}; [arena_ok] — the
    arena engages on the no-reuse rows.  Its JSON is BENCH_alloc.json. *)
val alloc_compare : ?calls:int -> ?window:int -> ?seed:int -> unit -> Gate.t

(** Render a timing table (paper vs modeled vs wall). *)
val render_timing : timing_table -> string

(** Sanity: do measured gains order configurations like the paper's? *)
val shape_summary : timing_table -> string

(** Drive [calls] pipelined RMIs from one client round-robin across
    [servers] machines — chain100 and matrix16x16, each over reliable,
    batched and seeded-lossy links — once on the serial runtime
    ([domains = 1]) and once on the work-stealing pool ([domains]
    workers, [queue_depth]-bounded per-node queues).  [spin] re-folds
    the argument in the handler so servers are CPU-bound.  Checks:
    [digest_ok] — issue-order reply digests (independent of how the
    pool interleaved execution) match across domain counts everywhere;
    [perf_enforced] — matrix16x16/reliable reaches [speedup_floor]x
    throughput with p999 within [tail_tol]x.  The perf check is
    skipped on single-domain runs and reported only when the host
    recommends fewer than [domains + 1] domains; its field shows
    whether it was enforced.  Its JSON is BENCH_load.json. *)
val load_compare :
  ?calls:int ->
  ?window:int ->
  ?servers:int ->
  ?domains:int ->
  ?queue_depth:int ->
  ?spin:int ->
  ?seed:int ->
  ?speedup_floor:float ->
  ?tail_tol:float ->
  unit ->
  Gate.t

(** Run the paper-table message shapes (chain100, matrix16x16) over the
    simulated interconnect and over a real TCP loopback mesh
    ({!Rmi_runtime.Fabric.backend}), sequentially, pipelined, and
    pipelined+batched, under the parallel fabric; one row per backend.
    Checks: [digest_ok] — byte-identical issue-order reply digests and
    checksums; [model_ok] — identical wire counters and modeled
    seconds.  Its JSON is BENCH_transport.json. *)
val transport_compare : ?calls:int -> ?window:int -> ?seed:int -> unit -> Gate.t

(** [transport_proc ~self ~addrs ()] runs machine [self] of a TCP
    cluster spread over real OS processes ([addrs.(i)] is machine [i]'s
    [(host, port)]; [?listen] overrides the bind address).  Servers
    ([self > 0]) export the wire workloads and block serving until
    machine 0 shuts them down, returning [None]; the client ([self =
    0]) drives [calls] pipelined RMIs per workload round-robin across
    the servers and returns one row per workload: its issue-order reply
    digest and its ARQ retransmits, abandoned frames, RPC resends and
    failed calls (check [no_failed_calls]).  Blocks until the full mesh
    is connected.

    [?reliable] stacks the {!Rmi_net.Reliable} adapter over the
    sockets (every process must agree) and arms the RPC retry budget,
    so the cluster rides through a server kill/restart; [?epoch] is
    the incarnation number a restarted server must bump (see
    {!Rmi_net.Sock.create_process}). *)
val transport_proc :
  ?calls:int ->
  ?window:int ->
  ?reliable:bool ->
  ?epoch:int ->
  ?listen:string * int ->
  self:int ->
  addrs:(string * int) array ->
  unit ->
  Gate.t option
