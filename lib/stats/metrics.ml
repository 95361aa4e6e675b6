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

(* a counter's cell in the table.  Constant constructors are the
   integers 0, 1, ... in declaration order, so ocamlopt compiles this
   match to the identity *)
let index = function
  | Remote_rpcs -> 0
  | Local_rpcs -> 1
  | Reused_objs -> 2
  | New_bytes -> 3
  | Cycle_lookups -> 4
  | Ser_invocations -> 5
  | Msgs_sent -> 6
  | Bytes_sent -> 7
  | Type_bytes -> 8
  | Allocs -> 9
  | Retries -> 10
  | Timeouts -> 11
  | Dup_drops -> 12
  | Acks_sent -> 13
  | Crashes -> 14
  | Restarts -> 15
  | Heartbeats_sent -> 16
  | Stale_drops -> 17
  | Suspects -> 18
  | Peer_downs -> 19
  | Call_retries -> 20
  | Failovers -> 21
  | Breaker_fastfails -> 22
  | Reply_cache_hits -> 23
  | Batches_sent -> 24
  | Batched_msgs -> 25
  | Unbatched_msgs -> 26
  | Outstanding_hwm -> 27
  | Tier_promotions -> 28
  | Tier_deopts -> 29
  | Plan_cache_hits -> 30
  | Plan_cache_misses -> 31
  | Bytes_copied -> 32
  | Pool_hits -> 33
  | Pool_misses -> 34
  | Arena_allocs -> 35
  | Arena_resets -> 36
  | Arena_fallbacks -> 37
  | Dispatches -> 38
  | Queue_rejects -> 39
  | Steals -> 40
  | Queue_depth_hwm -> 41

(* the table: one cell per counter (the last constructor bounds them),
   then the batch-size buckets, then the latency buckets *)
let batch_base = index Queue_depth_hwm + 1
let lat_base = batch_base + hist_buckets
let n_cells = lat_base + lat_buckets

type t = {
  cells : int Atomic.t array;
  (* per-call-site invocation counts (tiered dispatch); guarded by the
     mutex because sites appear dynamically *)
  site_calls : (int, int ref) Hashtbl.t;
  site_mutex : Mutex.t;
}

let create () =
  {
    cells = Array.init n_cells (fun _ -> Atomic.make 0);
    site_calls = Hashtbl.create 16;
    site_mutex = Mutex.create ();
  }

(* a zero add skips the atomic: a tally published at the end of a call
   often holds zeros *)
let bump t i n = if n <> 0 then ignore (Atomic.fetch_and_add t.cells.(i) n)

let add t c n = bump t (index c) n

let raise_max t c v =
  (* monotone max, CAS loop so concurrent domains never lose a peak *)
  let cell = t.cells.(index c) in
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

let record_batch t ~msgs =
  if msgs >= 1 then begin
    bump t (batch_base + hist_bucket msgs) 1;
    if msgs = 1 then add t Unbatched_msgs 1
    else begin
      add t Batches_sent 1;
      add t Batched_msgs msgs
    end
  end

let record_latency_ns t ns = bump t (lat_base + lat_bucket ns) 1

(* once per adaptive-tier dispatch: [Hashtbl.find] builds no option *)
let record_site_call t ~callsite =
  Mutex.lock t.site_mutex;
  (match Hashtbl.find t.site_calls callsite with
  | r -> incr r
  | exception Not_found -> Hashtbl.add t.site_calls callsite (ref 1));
  Mutex.unlock t.site_mutex

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

(* [build] and [get] are where each counter meets its snapshot field *)
let build f ~batch_hist ~lat_hist ~site_calls =
  {
    remote_rpcs = f Remote_rpcs;
    local_rpcs = f Local_rpcs;
    reused_objs = f Reused_objs;
    new_bytes = f New_bytes;
    cycle_lookups = f Cycle_lookups;
    ser_invocations = f Ser_invocations;
    msgs_sent = f Msgs_sent;
    bytes_sent = f Bytes_sent;
    type_bytes = f Type_bytes;
    allocs = f Allocs;
    retries = f Retries;
    timeouts = f Timeouts;
    dup_drops = f Dup_drops;
    acks_sent = f Acks_sent;
    crashes = f Crashes;
    restarts = f Restarts;
    heartbeats_sent = f Heartbeats_sent;
    stale_drops = f Stale_drops;
    suspects = f Suspects;
    peer_downs = f Peer_downs;
    call_retries = f Call_retries;
    failovers = f Failovers;
    breaker_fastfails = f Breaker_fastfails;
    reply_cache_hits = f Reply_cache_hits;
    batches_sent = f Batches_sent;
    batched_msgs = f Batched_msgs;
    unbatched_msgs = f Unbatched_msgs;
    outstanding_hwm = f Outstanding_hwm;
    batch_hist;
    tier_promotions = f Tier_promotions;
    tier_deopts = f Tier_deopts;
    plan_cache_hits = f Plan_cache_hits;
    plan_cache_misses = f Plan_cache_misses;
    bytes_copied = f Bytes_copied;
    pool_hits = f Pool_hits;
    pool_misses = f Pool_misses;
    arena_allocs = f Arena_allocs;
    arena_resets = f Arena_resets;
    arena_fallbacks = f Arena_fallbacks;
    dispatches = f Dispatches;
    queue_rejects = f Queue_rejects;
    steals = f Steals;
    queue_depth_hwm = f Queue_depth_hwm;
    lat_hist;
    site_calls;
  }

let get s = function
  | Remote_rpcs -> s.remote_rpcs
  | Local_rpcs -> s.local_rpcs
  | Reused_objs -> s.reused_objs
  | New_bytes -> s.new_bytes
  | Cycle_lookups -> s.cycle_lookups
  | Ser_invocations -> s.ser_invocations
  | Msgs_sent -> s.msgs_sent
  | Bytes_sent -> s.bytes_sent
  | Type_bytes -> s.type_bytes
  | Allocs -> s.allocs
  | Retries -> s.retries
  | Timeouts -> s.timeouts
  | Dup_drops -> s.dup_drops
  | Acks_sent -> s.acks_sent
  | Crashes -> s.crashes
  | Restarts -> s.restarts
  | Heartbeats_sent -> s.heartbeats_sent
  | Stale_drops -> s.stale_drops
  | Suspects -> s.suspects
  | Peer_downs -> s.peer_downs
  | Call_retries -> s.call_retries
  | Failovers -> s.failovers
  | Breaker_fastfails -> s.breaker_fastfails
  | Reply_cache_hits -> s.reply_cache_hits
  | Batches_sent -> s.batches_sent
  | Batched_msgs -> s.batched_msgs
  | Unbatched_msgs -> s.unbatched_msgs
  | Outstanding_hwm -> s.outstanding_hwm
  | Tier_promotions -> s.tier_promotions
  | Tier_deopts -> s.tier_deopts
  | Plan_cache_hits -> s.plan_cache_hits
  | Plan_cache_misses -> s.plan_cache_misses
  | Bytes_copied -> s.bytes_copied
  | Pool_hits -> s.pool_hits
  | Pool_misses -> s.pool_misses
  | Arena_allocs -> s.arena_allocs
  | Arena_resets -> s.arena_resets
  | Arena_fallbacks -> s.arena_fallbacks
  | Dispatches -> s.dispatches
  | Queue_rejects -> s.queue_rejects
  | Steals -> s.steals
  | Queue_depth_hwm -> s.queue_depth_hwm

let snapshot t =
  let cell i = Atomic.get t.cells.(i) in
  let site_calls =
    Mutex.lock t.site_mutex;
    let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.site_calls [] in
    Mutex.unlock t.site_mutex;
    List.sort compare (List.filter (fun (_, n) -> n <> 0) l)
  in
  build
    (fun c -> cell (index c))
    ~batch_hist:(Array.init hist_buckets (fun i -> cell (batch_base + i)))
    ~lat_hist:(Array.init lat_buckets (fun i -> cell (lat_base + i)))
    ~site_calls

let zero =
  build
    (fun _ -> 0)
    ~batch_hist:(Array.make hist_buckets 0)
    ~lat_hist:(Array.make lat_buckets 0)
    ~site_calls:[]

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
  build
    (fun c -> f (get a c) (get b c))
    ~batch_hist:(Array.map2 f a.batch_hist b.batch_hist)
    ~lat_hist:(Array.map2 f a.lat_hist b.lat_hist)
    ~site_calls:(assoc_map2 f a.site_calls b.site_calls)

let diff later earlier = map2 ( - ) later earlier
let merge a b = map2 ( + ) a b

(* on a Sim fabric run under [Sync], every counter of a snapshot is a
   function of the seed — except the latency histogram, whose bucket
   placement depends on wall-clock timing.  [strip_timing] zeroes it so
   determinism tests can compare whole snapshots with [=]; the sample
   COUNT is still deterministic (one per settled call) and can be
   checked via [lat_count] separately.  Over Sock or across domains the
   ARQ counters follow the thread schedule too, so a stripped snapshot
   is not reproducible there. *)
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
