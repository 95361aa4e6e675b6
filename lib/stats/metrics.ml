(* batch-size histogram buckets: sizes 1,2,3,4,5-8,9-16,17-32,33+ *)
let hist_buckets = 8

let hist_bucket size =
  if size <= 4 then size - 1
  else if size <= 8 then 4
  else if size <= 16 then 5
  else if size <= 32 then 6
  else 7

let hist_bucket_label = function
  | 0 -> "1"
  | 1 -> "2"
  | 2 -> "3"
  | 3 -> "4"
  | 4 -> "5-8"
  | 5 -> "9-16"
  | 6 -> "17-32"
  | _ -> "33+"

(* latency histogram: log2 buckets over nanoseconds.  Bucket [i] counts
   latencies in [2^i, 2^(i+1)) ns; 48 buckets reach ~3.3 days, so no
   realistic RMI overflows the last bucket.  Power-of-two bucketing
   keeps recording one shift-loop plus one atomic add, and makes
   per-domain histograms mergeable by plain element-wise addition. *)
let lat_buckets = 48

let lat_bucket ns =
  if ns <= 1 then 0
  else begin
    (* floor(log2 ns) via bit length *)
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (lat_buckets - 1) (bits 0 ns - 1)
  end

(* inclusive upper bound of bucket [i], in nanoseconds *)
let lat_bucket_upper_ns i = Float.of_int (1 lsl (min 61 (i + 1)))

(* [lat_quantile hist q] estimates the [q]-quantile (0 < q <= 1) of the
   recorded latencies as the upper bound of the bucket where the
   cumulative count crosses [q * total], in nanoseconds.  0.0 when the
   histogram is empty.  Monotone in [q] by construction, so
   p50 <= p99 <= p999 always holds. *)
let lat_quantile hist q =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let target = min target total in
    let rec walk i cum =
      if i >= Array.length hist then lat_bucket_upper_ns (Array.length hist - 1)
      else
        let cum = cum + hist.(i) in
        if cum >= target then lat_bucket_upper_ns i else walk (i + 1) cum
    in
    walk 0 0
  end

let lat_count hist = Array.fold_left ( + ) 0 hist

type t = {
  remote_rpcs : int Atomic.t;
  local_rpcs : int Atomic.t;
  reused_objs : int Atomic.t;
  new_bytes : int Atomic.t;
  cycle_lookups : int Atomic.t;
  ser_invocations : int Atomic.t;
  msgs_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  type_bytes : int Atomic.t;
  allocs : int Atomic.t;
  retries : int Atomic.t;
  timeouts : int Atomic.t;
  dup_drops : int Atomic.t;
  acks_sent : int Atomic.t;
  crashes : int Atomic.t;
  restarts : int Atomic.t;
  heartbeats_sent : int Atomic.t;
  stale_drops : int Atomic.t;
  suspects : int Atomic.t;
  peer_downs : int Atomic.t;
  call_retries : int Atomic.t;
  failovers : int Atomic.t;
  breaker_fastfails : int Atomic.t;
  reply_cache_hits : int Atomic.t;
  batches_sent : int Atomic.t;
  batched_msgs : int Atomic.t;
  unbatched_msgs : int Atomic.t;
  outstanding_hwm : int Atomic.t;
  batch_hist : int Atomic.t array;
  tier_promotions : int Atomic.t;
  tier_deopts : int Atomic.t;
  plan_cache_hits : int Atomic.t;
  plan_cache_misses : int Atomic.t;
  bytes_copied : int Atomic.t;
  arena_allocs : int Atomic.t;
  arena_resets : int Atomic.t;
  arena_fallbacks : int Atomic.t;
  pool_hits : int Atomic.t;
  pool_misses : int Atomic.t;
  dispatches : int Atomic.t;
  queue_rejects : int Atomic.t;
  steals : int Atomic.t;
  queue_depth_hwm : int Atomic.t;
  lat_hist : int Atomic.t array;
  (* per-call-site invocation counts (tiered dispatch); guarded by the
     mutex because sites appear dynamically *)
  site_calls : (int, int ref) Hashtbl.t;
  site_mutex : Mutex.t;
}

type snapshot = {
  remote_rpcs : int;
  local_rpcs : int;
  reused_objs : int;
  new_bytes : int;
  cycle_lookups : int;
  ser_invocations : int;
  msgs_sent : int;
  bytes_sent : int;
  type_bytes : int;
  allocs : int;
  retries : int;
  timeouts : int;
  dup_drops : int;
  acks_sent : int;
  crashes : int;
  restarts : int;
  heartbeats_sent : int;
  stale_drops : int;
  suspects : int;
  peer_downs : int;
  call_retries : int;
  failovers : int;
  breaker_fastfails : int;
  reply_cache_hits : int;
  batches_sent : int;
  batched_msgs : int;
  unbatched_msgs : int;
  outstanding_hwm : int;
  batch_hist : int array;
  tier_promotions : int;
  tier_deopts : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  bytes_copied : int;
  pool_hits : int;
  pool_misses : int;
  arena_allocs : int;
  arena_resets : int;
  arena_fallbacks : int;
  dispatches : int;
  queue_rejects : int;
  steals : int;
  queue_depth_hwm : int;
  lat_hist : int array;
  site_calls : (int * int) list;  (** sorted by site, zero entries elided *)
}

let create () : t =
  {
    remote_rpcs = Atomic.make 0;
    local_rpcs = Atomic.make 0;
    reused_objs = Atomic.make 0;
    new_bytes = Atomic.make 0;
    cycle_lookups = Atomic.make 0;
    ser_invocations = Atomic.make 0;
    msgs_sent = Atomic.make 0;
    bytes_sent = Atomic.make 0;
    type_bytes = Atomic.make 0;
    allocs = Atomic.make 0;
    retries = Atomic.make 0;
    timeouts = Atomic.make 0;
    dup_drops = Atomic.make 0;
    acks_sent = Atomic.make 0;
    crashes = Atomic.make 0;
    restarts = Atomic.make 0;
    heartbeats_sent = Atomic.make 0;
    stale_drops = Atomic.make 0;
    suspects = Atomic.make 0;
    peer_downs = Atomic.make 0;
    call_retries = Atomic.make 0;
    failovers = Atomic.make 0;
    breaker_fastfails = Atomic.make 0;
    reply_cache_hits = Atomic.make 0;
    batches_sent = Atomic.make 0;
    batched_msgs = Atomic.make 0;
    unbatched_msgs = Atomic.make 0;
    outstanding_hwm = Atomic.make 0;
    batch_hist = Array.init hist_buckets (fun _ -> Atomic.make 0);
    tier_promotions = Atomic.make 0;
    tier_deopts = Atomic.make 0;
    plan_cache_hits = Atomic.make 0;
    plan_cache_misses = Atomic.make 0;
    bytes_copied = Atomic.make 0;
    arena_allocs = Atomic.make 0;
    arena_resets = Atomic.make 0;
    arena_fallbacks = Atomic.make 0;
    pool_hits = Atomic.make 0;
    pool_misses = Atomic.make 0;
    dispatches = Atomic.make 0;
    queue_rejects = Atomic.make 0;
    steals = Atomic.make 0;
    queue_depth_hwm = Atomic.make 0;
    lat_hist = Array.init lat_buckets (fun _ -> Atomic.make 0);
    site_calls = Hashtbl.create 16;
    site_mutex = Mutex.create ();
  }

let reset (t : t) =
  Atomic.set t.remote_rpcs 0;
  Atomic.set t.local_rpcs 0;
  Atomic.set t.reused_objs 0;
  Atomic.set t.new_bytes 0;
  Atomic.set t.cycle_lookups 0;
  Atomic.set t.ser_invocations 0;
  Atomic.set t.msgs_sent 0;
  Atomic.set t.bytes_sent 0;
  Atomic.set t.type_bytes 0;
  Atomic.set t.allocs 0;
  Atomic.set t.retries 0;
  Atomic.set t.timeouts 0;
  Atomic.set t.dup_drops 0;
  Atomic.set t.acks_sent 0;
  Atomic.set t.crashes 0;
  Atomic.set t.restarts 0;
  Atomic.set t.heartbeats_sent 0;
  Atomic.set t.stale_drops 0;
  Atomic.set t.suspects 0;
  Atomic.set t.peer_downs 0;
  Atomic.set t.call_retries 0;
  Atomic.set t.failovers 0;
  Atomic.set t.breaker_fastfails 0;
  Atomic.set t.reply_cache_hits 0;
  Atomic.set t.batches_sent 0;
  Atomic.set t.batched_msgs 0;
  Atomic.set t.unbatched_msgs 0;
  Atomic.set t.outstanding_hwm 0;
  Array.iter (fun a -> Atomic.set a 0) t.batch_hist;
  Atomic.set t.tier_promotions 0;
  Atomic.set t.tier_deopts 0;
  Atomic.set t.plan_cache_hits 0;
  Atomic.set t.plan_cache_misses 0;
  Atomic.set t.bytes_copied 0;
  Atomic.set t.arena_allocs 0;
  Atomic.set t.arena_resets 0;
  Atomic.set t.arena_fallbacks 0;
  Atomic.set t.pool_hits 0;
  Atomic.set t.pool_misses 0;
  Atomic.set t.dispatches 0;
  Atomic.set t.queue_rejects 0;
  Atomic.set t.steals 0;
  Atomic.set t.queue_depth_hwm 0;
  Array.iter (fun a -> Atomic.set a 0) t.lat_hist;
  Mutex.lock t.site_mutex;
  Hashtbl.reset t.site_calls;
  Mutex.unlock t.site_mutex

(* a zero add skips the atomic: a tally published at the end of a call
   often holds zeros *)
let add a n = if n <> 0 then ignore (Atomic.fetch_and_add a n)

let incr_remote_rpcs (t : t) = add t.remote_rpcs 1
let incr_local_rpcs (t : t) = add t.local_rpcs 1
let add_reused_objs (t : t) n = add t.reused_objs n
let add_new_bytes (t : t) n = add t.new_bytes n
let add_cycle_lookups (t : t) n = add t.cycle_lookups n
let incr_ser_invocations (t : t) = add t.ser_invocations 1
let add_ser_invocations (t : t) n = add t.ser_invocations n
let incr_msgs_sent (t : t) = add t.msgs_sent 1
let add_bytes_sent (t : t) n = add t.bytes_sent n
let add_type_bytes (t : t) n = add t.type_bytes n
let incr_allocs (t : t) = add t.allocs 1
let add_allocs (t : t) n = add t.allocs n
let incr_retries (t : t) = add t.retries 1
let incr_timeouts (t : t) = add t.timeouts 1
let incr_dup_drops (t : t) = add t.dup_drops 1
let incr_acks_sent (t : t) = add t.acks_sent 1
let incr_crashes (t : t) = add t.crashes 1
let incr_restarts (t : t) = add t.restarts 1
let incr_heartbeats_sent (t : t) = add t.heartbeats_sent 1
let incr_stale_drops (t : t) = add t.stale_drops 1
let incr_suspects (t : t) = add t.suspects 1
let incr_peer_downs (t : t) = add t.peer_downs 1
let incr_call_retries (t : t) = add t.call_retries 1
let incr_failovers (t : t) = add t.failovers 1
let incr_breaker_fastfails (t : t) = add t.breaker_fastfails 1
let incr_reply_cache_hits (t : t) = add t.reply_cache_hits 1

let record_batch (t : t) ~msgs =
  if msgs >= 1 then begin
    add t.batch_hist.(hist_bucket msgs) 1;
    if msgs = 1 then add t.unbatched_msgs 1
    else begin
      add t.batches_sent 1;
      add t.batched_msgs msgs
    end
  end

let incr_unbatched (t : t) = add t.unbatched_msgs 1

let incr_tier_promotions (t : t) = add t.tier_promotions 1
let incr_tier_deopts (t : t) = add t.tier_deopts 1
let incr_plan_cache_hits (t : t) = add t.plan_cache_hits 1
let incr_plan_cache_misses (t : t) = add t.plan_cache_misses 1
let add_bytes_copied (t : t) n = add t.bytes_copied n
let incr_arena_allocs (t : t) = add t.arena_allocs 1
let add_arena_allocs (t : t) n = add t.arena_allocs n
let incr_arena_resets (t : t) = add t.arena_resets 1
let incr_arena_fallbacks (t : t) = add t.arena_fallbacks 1
let add_arena_fallbacks (t : t) n = add t.arena_fallbacks n
let incr_pool_hits (t : t) = add t.pool_hits 1
let incr_pool_misses (t : t) = add t.pool_misses 1
let add_dispatches (t : t) n = add t.dispatches n
let incr_queue_rejects (t : t) = add t.queue_rejects 1
let incr_steals (t : t) = add t.steals 1

let record_queue_depth (t : t) depth =
  (* monotone max, CAS loop so concurrent domains never lose a peak *)
  let rec go () =
    let cur = Atomic.get t.queue_depth_hwm in
    if depth > cur && not (Atomic.compare_and_set t.queue_depth_hwm cur depth)
    then go ()
  in
  go ()

let record_latency_ns (t : t) ns = add t.lat_hist.(lat_bucket ns) 1

(* once per adaptive-tier dispatch: [Hashtbl.find] builds no option *)
let record_site_call (t : t) ~callsite =
  Mutex.lock t.site_mutex;
  (match Hashtbl.find t.site_calls callsite with
  | r -> incr r
  | exception Not_found -> Hashtbl.add t.site_calls callsite (ref 1));
  Mutex.unlock t.site_mutex

let site_call_count (t : t) ~callsite =
  Mutex.lock t.site_mutex;
  let n =
    match Hashtbl.find_opt t.site_calls callsite with
    | Some r -> !r
    | None -> 0
  in
  Mutex.unlock t.site_mutex;
  n

let record_outstanding (t : t) depth =
  (* monotone max, CAS loop so concurrent domains never lose a peak *)
  let rec go () =
    let cur = Atomic.get t.outstanding_hwm in
    if depth > cur && not (Atomic.compare_and_set t.outstanding_hwm cur depth)
    then go ()
  in
  go ()

let snapshot (t : t) =
  {
    remote_rpcs = Atomic.get t.remote_rpcs;
    local_rpcs = Atomic.get t.local_rpcs;
    reused_objs = Atomic.get t.reused_objs;
    new_bytes = Atomic.get t.new_bytes;
    cycle_lookups = Atomic.get t.cycle_lookups;
    ser_invocations = Atomic.get t.ser_invocations;
    msgs_sent = Atomic.get t.msgs_sent;
    bytes_sent = Atomic.get t.bytes_sent;
    type_bytes = Atomic.get t.type_bytes;
    allocs = Atomic.get t.allocs;
    retries = Atomic.get t.retries;
    timeouts = Atomic.get t.timeouts;
    dup_drops = Atomic.get t.dup_drops;
    acks_sent = Atomic.get t.acks_sent;
    crashes = Atomic.get t.crashes;
    restarts = Atomic.get t.restarts;
    heartbeats_sent = Atomic.get t.heartbeats_sent;
    stale_drops = Atomic.get t.stale_drops;
    suspects = Atomic.get t.suspects;
    peer_downs = Atomic.get t.peer_downs;
    call_retries = Atomic.get t.call_retries;
    failovers = Atomic.get t.failovers;
    breaker_fastfails = Atomic.get t.breaker_fastfails;
    reply_cache_hits = Atomic.get t.reply_cache_hits;
    batches_sent = Atomic.get t.batches_sent;
    batched_msgs = Atomic.get t.batched_msgs;
    unbatched_msgs = Atomic.get t.unbatched_msgs;
    outstanding_hwm = Atomic.get t.outstanding_hwm;
    batch_hist = Array.map Atomic.get t.batch_hist;
    tier_promotions = Atomic.get t.tier_promotions;
    tier_deopts = Atomic.get t.tier_deopts;
    plan_cache_hits = Atomic.get t.plan_cache_hits;
    plan_cache_misses = Atomic.get t.plan_cache_misses;
    bytes_copied = Atomic.get t.bytes_copied;
    arena_allocs = Atomic.get t.arena_allocs;
    arena_resets = Atomic.get t.arena_resets;
    arena_fallbacks = Atomic.get t.arena_fallbacks;
    pool_hits = Atomic.get t.pool_hits;
    pool_misses = Atomic.get t.pool_misses;
    dispatches = Atomic.get t.dispatches;
    queue_rejects = Atomic.get t.queue_rejects;
    steals = Atomic.get t.steals;
    queue_depth_hwm = Atomic.get t.queue_depth_hwm;
    lat_hist = Array.map Atomic.get t.lat_hist;
    site_calls =
      (Mutex.lock t.site_mutex;
       let l =
         Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.site_calls []
       in
       Mutex.unlock t.site_mutex;
       List.sort compare (List.filter (fun (_, n) -> n <> 0) l));
  }

let zero =
  {
    remote_rpcs = 0;
    local_rpcs = 0;
    reused_objs = 0;
    new_bytes = 0;
    cycle_lookups = 0;
    ser_invocations = 0;
    msgs_sent = 0;
    bytes_sent = 0;
    type_bytes = 0;
    allocs = 0;
    retries = 0;
    timeouts = 0;
    dup_drops = 0;
    acks_sent = 0;
    crashes = 0;
    restarts = 0;
    heartbeats_sent = 0;
    stale_drops = 0;
    suspects = 0;
    peer_downs = 0;
    call_retries = 0;
    failovers = 0;
    breaker_fastfails = 0;
    reply_cache_hits = 0;
    batches_sent = 0;
    batched_msgs = 0;
    unbatched_msgs = 0;
    outstanding_hwm = 0;
    batch_hist = Array.make hist_buckets 0;
    tier_promotions = 0;
    tier_deopts = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    bytes_copied = 0;
    arena_allocs = 0;
    arena_resets = 0;
    arena_fallbacks = 0;
    pool_hits = 0;
    pool_misses = 0;
    dispatches = 0;
    queue_rejects = 0;
    steals = 0;
    queue_depth_hwm = 0;
    lat_hist = Array.make lat_buckets 0;
    site_calls = [];
  }

(* keywise [f] over two sorted assoc lists, treating a missing key as 0;
   zero results are dropped so the canonical form stays comparable with
   structural equality *)
let assoc_map2 f a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, _) -> Hashtbl.replace tbl k ()) a;
  List.iter (fun (k, _) -> Hashtbl.replace tbl k ()) b;
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
  let get l k = match List.assoc_opt k l with Some v -> v | None -> 0 in
  List.sort compare keys
  |> List.filter_map (fun k ->
         let v = f (get a k) (get b k) in
         if v = 0 then None else Some (k, v))

let map2 f a b =
  {
    remote_rpcs = f a.remote_rpcs b.remote_rpcs;
    local_rpcs = f a.local_rpcs b.local_rpcs;
    reused_objs = f a.reused_objs b.reused_objs;
    new_bytes = f a.new_bytes b.new_bytes;
    cycle_lookups = f a.cycle_lookups b.cycle_lookups;
    ser_invocations = f a.ser_invocations b.ser_invocations;
    msgs_sent = f a.msgs_sent b.msgs_sent;
    bytes_sent = f a.bytes_sent b.bytes_sent;
    type_bytes = f a.type_bytes b.type_bytes;
    allocs = f a.allocs b.allocs;
    retries = f a.retries b.retries;
    timeouts = f a.timeouts b.timeouts;
    dup_drops = f a.dup_drops b.dup_drops;
    acks_sent = f a.acks_sent b.acks_sent;
    crashes = f a.crashes b.crashes;
    restarts = f a.restarts b.restarts;
    heartbeats_sent = f a.heartbeats_sent b.heartbeats_sent;
    stale_drops = f a.stale_drops b.stale_drops;
    suspects = f a.suspects b.suspects;
    peer_downs = f a.peer_downs b.peer_downs;
    call_retries = f a.call_retries b.call_retries;
    failovers = f a.failovers b.failovers;
    breaker_fastfails = f a.breaker_fastfails b.breaker_fastfails;
    reply_cache_hits = f a.reply_cache_hits b.reply_cache_hits;
    batches_sent = f a.batches_sent b.batches_sent;
    batched_msgs = f a.batched_msgs b.batched_msgs;
    unbatched_msgs = f a.unbatched_msgs b.unbatched_msgs;
    outstanding_hwm = f a.outstanding_hwm b.outstanding_hwm;
    batch_hist = Array.map2 f a.batch_hist b.batch_hist;
    tier_promotions = f a.tier_promotions b.tier_promotions;
    tier_deopts = f a.tier_deopts b.tier_deopts;
    plan_cache_hits = f a.plan_cache_hits b.plan_cache_hits;
    plan_cache_misses = f a.plan_cache_misses b.plan_cache_misses;
    bytes_copied = f a.bytes_copied b.bytes_copied;
    arena_allocs = f a.arena_allocs b.arena_allocs;
    arena_resets = f a.arena_resets b.arena_resets;
    arena_fallbacks = f a.arena_fallbacks b.arena_fallbacks;
    pool_hits = f a.pool_hits b.pool_hits;
    pool_misses = f a.pool_misses b.pool_misses;
    dispatches = f a.dispatches b.dispatches;
    queue_rejects = f a.queue_rejects b.queue_rejects;
    steals = f a.steals b.steals;
    queue_depth_hwm = f a.queue_depth_hwm b.queue_depth_hwm;
    lat_hist = Array.map2 f a.lat_hist b.lat_hist;
    site_calls = assoc_map2 f a.site_calls b.site_calls;
  }

let diff later earlier = map2 ( - ) later earlier
let merge a b = map2 ( + ) a b

(* every counter in a snapshot is deterministic for a fixed seed —
   except the latency histogram, whose bucket placement depends on
   wall-clock timing.  [strip_timing] zeroes it so determinism tests
   can compare whole snapshots with [=]; the sample COUNT is still
   deterministic (one per settled call) and can be checked via
   [lat_count] separately. *)
let strip_timing s = { s with lat_hist = Array.make lat_buckets 0 }

let pp_batch_hist ppf hist =
  let any = Array.exists (fun c -> c > 0) hist in
  if any then begin
    Format.fprintf ppf "@ batch_hist=[";
    Array.iteri
      (fun i c ->
        if c > 0 then Format.fprintf ppf " %s:%d" (hist_bucket_label i) c)
      hist;
    Format.fprintf ppf " ]"
  end

let pp_robustness ppf s =
  (* crash/failover counters only appear once something failed, so
     fault-free paper-table output is unchanged *)
  if
    s.crashes + s.restarts + s.heartbeats_sent + s.stale_drops + s.suspects
    + s.peer_downs + s.call_retries + s.failovers + s.breaker_fastfails
    + s.reply_cache_hits > 0
  then
    Format.fprintf ppf
      "@ crashes=%d restarts=%d heartbeats=%d stale_drops=%d suspects=%d \
       peer_downs=%d@ call_retries=%d failovers=%d breaker_fastfails=%d \
       reply_cache_hits=%d"
      s.crashes s.restarts s.heartbeats_sent s.stale_drops s.suspects
      s.peer_downs s.call_retries s.failovers s.breaker_fastfails
      s.reply_cache_hits

let pp_tiers ppf s =
  (* tiering counters only appear once adaptive dispatch ran, so
     ahead-of-time paper-table output is unchanged *)
  if
    s.tier_promotions + s.tier_deopts + s.plan_cache_hits
    + s.plan_cache_misses > 0
    || s.site_calls <> []
  then begin
    Format.fprintf ppf
      "@ tier_promotions=%d tier_deopts=%d plan_cache_hits=%d \
       plan_cache_misses=%d"
      s.tier_promotions s.tier_deopts s.plan_cache_hits s.plan_cache_misses;
    if s.site_calls <> [] then begin
      Format.fprintf ppf "@ site_calls=[";
      List.iter (fun (cs, n) -> Format.fprintf ppf " cs%d:%d" cs n)
        s.site_calls;
      Format.fprintf ppf " ]"
    end
  end

let pp_wire ppf s =
  (* zero-copy telemetry only appears once the wire path ran, so
     serializer-only paper-table output is unchanged *)
  if s.bytes_copied + s.pool_hits + s.pool_misses > 0 then
    Format.fprintf ppf "@ bytes_copied=%d pool_hits=%d pool_misses=%d"
      s.bytes_copied s.pool_hits s.pool_misses

let pp_arena ppf s =
  (* arena telemetry only appears once arena decoding ran, so
     legacy-heap paper-table output is unchanged *)
  if s.arena_allocs + s.arena_resets + s.arena_fallbacks > 0 then
    Format.fprintf ppf "@ arena_allocs=%d arena_resets=%d arena_fallbacks=%d"
      s.arena_allocs s.arena_resets s.arena_fallbacks

let pp_load ppf s =
  (* dispatch-pool counters only appear once the multi-domain runtime
     ran, so single-domain paper-table output is unchanged.  The latency
     histogram records in every run but is only printed here: quantiles
     are timing-dependent, so surfacing them unconditionally would make
     paper-table output nondeterministic. *)
  if s.dispatches + s.queue_rejects + s.steals + s.queue_depth_hwm > 0 then begin
    Format.fprintf ppf
      "@ dispatches=%d queue_rejects=%d steals=%d queue_depth_hwm=%d"
      s.dispatches s.queue_rejects s.steals s.queue_depth_hwm;
    if lat_count s.lat_hist > 0 then
      Format.fprintf ppf "@ lat_p50=%.0fns lat_p99=%.0fns lat_p999=%.0fns"
        (lat_quantile s.lat_hist 0.5)
        (lat_quantile s.lat_hist 0.99)
        (lat_quantile s.lat_hist 0.999)
  end

let pp ppf s =
  Format.fprintf ppf
    "@[<v>remote_rpcs=%d local_rpcs=%d reused_objs=%d new_bytes=%d@ \
     cycle_lookups=%d ser_invocations=%d msgs=%d bytes=%d type_bytes=%d \
     allocs=%d@ retries=%d timeouts=%d dup_drops=%d acks_sent=%d@ \
     batches=%d batched_msgs=%d unbatched_msgs=%d outstanding_hwm=%d%a%a%a%a%a%a@]"
    s.remote_rpcs s.local_rpcs s.reused_objs s.new_bytes s.cycle_lookups
    s.ser_invocations s.msgs_sent s.bytes_sent s.type_bytes s.allocs s.retries
    s.timeouts s.dup_drops s.acks_sent s.batches_sent s.batched_msgs
    s.unbatched_msgs s.outstanding_hwm pp_batch_hist s.batch_hist
    pp_robustness s pp_tiers s pp_wire s pp_arena s pp_load s
