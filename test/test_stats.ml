(* Metrics and table-rendering tests. *)

module Metrics = Rmi_stats.Metrics
module Ascii_table = Rmi_stats.Ascii_table

let counters_accumulate () =
  let m = Metrics.create () in
  Metrics.incr_remote_rpcs m;
  Metrics.incr_remote_rpcs m;
  Metrics.incr_local_rpcs m;
  Metrics.add_reused_objs m 10;
  Metrics.add_new_bytes m 1024;
  Metrics.add_cycle_lookups m 3;
  Metrics.incr_ser_invocations m;
  Metrics.incr_msgs_sent m;
  Metrics.add_bytes_sent m 256;
  Metrics.add_type_bytes m 7;
  Metrics.incr_allocs m;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "remote" 2 s.Metrics.remote_rpcs;
  Alcotest.(check int) "local" 1 s.Metrics.local_rpcs;
  Alcotest.(check int) "reused" 10 s.Metrics.reused_objs;
  Alcotest.(check int) "new bytes" 1024 s.Metrics.new_bytes;
  Alcotest.(check int) "cycle" 3 s.Metrics.cycle_lookups;
  Alcotest.(check int) "ser" 1 s.Metrics.ser_invocations;
  Alcotest.(check int) "msgs" 1 s.Metrics.msgs_sent;
  Alcotest.(check int) "bytes" 256 s.Metrics.bytes_sent;
  Alcotest.(check int) "type bytes" 7 s.Metrics.type_bytes;
  Alcotest.(check int) "allocs" 1 s.Metrics.allocs

let reset_zeroes () =
  let m = Metrics.create () in
  Metrics.add_bytes_sent m 100;
  Metrics.reset m;
  Alcotest.(check bool) "zero after reset" true (Metrics.snapshot m = Metrics.zero)

let diff_and_merge () =
  let m = Metrics.create () in
  Metrics.add_bytes_sent m 100;
  let s1 = Metrics.snapshot m in
  Metrics.add_bytes_sent m 50;
  Metrics.incr_allocs m;
  let s2 = Metrics.snapshot m in
  let d = Metrics.diff s2 s1 in
  Alcotest.(check int) "diff bytes" 50 d.Metrics.bytes_sent;
  Alcotest.(check int) "diff allocs" 1 d.Metrics.allocs;
  let merged = Metrics.merge s1 d in
  Alcotest.(check bool) "merge restores" true (merged = s2)

let concurrent_updates () =
  (* atomic counters must not lose updates across domains *)
  let m = Metrics.create () in
  let worker () =
    for _ = 1 to 10_000 do
      Metrics.incr_msgs_sent m
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  Alcotest.(check int) "no lost updates" 20_000
    (Metrics.snapshot m).Metrics.msgs_sent

(* Build a snapshot whose every field holds a distinct value derived
   from [k].  The record literal (no [with], no wildcard) makes this
   test fail to compile whenever a counter is added to [snapshot]
   without extending it — the same exhaustiveness [merge]/[diff] rely
   on. *)
let mk_snapshot k =
  {
    Metrics.remote_rpcs = k + 1;
    local_rpcs = k + 2;
    reused_objs = k + 3;
    new_bytes = k + 4;
    cycle_lookups = k + 5;
    ser_invocations = k + 6;
    msgs_sent = k + 7;
    bytes_sent = k + 8;
    type_bytes = k + 9;
    allocs = k + 10;
    retries = k + 11;
    timeouts = k + 12;
    dup_drops = k + 13;
    acks_sent = k + 14;
    crashes = k + 15;
    restarts = k + 16;
    heartbeats_sent = k + 17;
    stale_drops = k + 18;
    suspects = k + 19;
    peer_downs = k + 20;
    call_retries = k + 21;
    failovers = k + 22;
    breaker_fastfails = k + 23;
    reply_cache_hits = k + 24;
    batches_sent = k + 25;
    batched_msgs = k + 26;
    unbatched_msgs = k + 27;
    outstanding_hwm = k + 28;
    tier_promotions = k + 29;
    tier_deopts = k + 30;
    plan_cache_hits = k + 31;
    plan_cache_misses = k + 32;
    bytes_copied = k + 42;
    pool_hits = k + 43;
    pool_misses = k + 44;
    arena_allocs = k + 49;
    arena_resets = k + 50;
    arena_fallbacks = k + 51;
    dispatches = k + 45;
    queue_rejects = k + 46;
    steals = k + 47;
    queue_depth_hwm = k + 48;
    batch_hist = Array.init Metrics.hist_buckets (fun i -> k + 33 + i);
    lat_hist = Array.init Metrics.lat_buckets (fun i -> k + 100 + i);
    (* keys sorted, values positive: [assoc_map2] drops zero entries and
       returns a key-sorted list, so structural equality holds *)
    site_calls = [ (1, k + 40); (7, k + 41) ];
  }

let prop_merge_diff_laws =
  QCheck.Test.make ~name:"merge/diff cover every counter (300 cases)"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let sa = mk_snapshot a and sb = mk_snapshot b in
      Metrics.merge Metrics.zero sa = sa
      && Metrics.merge sa Metrics.zero = sa
      && Metrics.diff sa Metrics.zero = sa
      && Metrics.diff (Metrics.merge sa sb) sb = sa
      && Metrics.merge sa sb = Metrics.merge sb sa)

(* every mutator in the interface moves its counter, and [reset] puts
   every one of them back to zero *)
let every_counter_covered () =
  let m = Metrics.create () in
  Metrics.incr_remote_rpcs m;
  Metrics.incr_local_rpcs m;
  Metrics.add_reused_objs m 2;
  Metrics.add_new_bytes m 3;
  Metrics.add_cycle_lookups m 4;
  Metrics.incr_ser_invocations m;
  Metrics.incr_msgs_sent m;
  Metrics.add_bytes_sent m 5;
  Metrics.add_type_bytes m 6;
  Metrics.incr_allocs m;
  Metrics.incr_retries m;
  Metrics.incr_timeouts m;
  Metrics.incr_dup_drops m;
  Metrics.incr_acks_sent m;
  Metrics.incr_crashes m;
  Metrics.incr_restarts m;
  Metrics.incr_heartbeats_sent m;
  Metrics.incr_stale_drops m;
  Metrics.incr_suspects m;
  Metrics.incr_peer_downs m;
  Metrics.incr_call_retries m;
  Metrics.incr_failovers m;
  Metrics.incr_breaker_fastfails m;
  Metrics.incr_reply_cache_hits m;
  Metrics.record_batch m ~msgs:3;
  Metrics.incr_unbatched m;
  Metrics.record_outstanding m 7;
  Metrics.incr_tier_promotions m;
  Metrics.incr_tier_deopts m;
  Metrics.incr_plan_cache_hits m;
  Metrics.incr_plan_cache_misses m;
  Metrics.add_bytes_copied m 8;
  Metrics.incr_pool_hits m;
  Metrics.incr_pool_misses m;
  Metrics.incr_arena_allocs m;
  Metrics.incr_arena_resets m;
  Metrics.incr_arena_fallbacks m;
  Metrics.add_dispatches m 1;
  Metrics.incr_queue_rejects m;
  Metrics.incr_steals m;
  Metrics.record_queue_depth m 9;
  Metrics.record_latency_ns m 1_500;
  Metrics.record_site_call m ~callsite:42;
  (* destructure without a wildcard: adding a snapshot field breaks
     this match until the test covers it *)
  let {
    Metrics.remote_rpcs;
    local_rpcs;
    reused_objs;
    new_bytes;
    cycle_lookups;
    ser_invocations;
    msgs_sent;
    bytes_sent;
    type_bytes;
    allocs;
    retries;
    timeouts;
    dup_drops;
    acks_sent;
    crashes;
    restarts;
    heartbeats_sent;
    stale_drops;
    suspects;
    peer_downs;
    call_retries;
    failovers;
    breaker_fastfails;
    reply_cache_hits;
    batches_sent;
    batched_msgs;
    unbatched_msgs;
    outstanding_hwm;
    tier_promotions;
    tier_deopts;
    plan_cache_hits;
    plan_cache_misses;
    bytes_copied;
    pool_hits;
    pool_misses;
    arena_allocs;
    arena_resets;
    arena_fallbacks;
    dispatches;
    queue_rejects;
    steals;
    queue_depth_hwm;
    batch_hist;
    lat_hist;
    site_calls;
  } =
    Metrics.snapshot m
  in
  List.iteri
    (fun i v ->
      if v <= 0 then Alcotest.failf "counter #%d not moved by its mutator" i)
    [
      remote_rpcs; local_rpcs; reused_objs; new_bytes; cycle_lookups;
      ser_invocations; msgs_sent; bytes_sent; type_bytes; allocs; retries;
      timeouts; dup_drops; acks_sent; crashes; restarts; heartbeats_sent;
      stale_drops; suspects; peer_downs; call_retries; failovers;
      breaker_fastfails; reply_cache_hits; batches_sent; batched_msgs;
      unbatched_msgs; outstanding_hwm; tier_promotions; tier_deopts;
      plan_cache_hits; plan_cache_misses; bytes_copied; pool_hits; pool_misses;
      arena_allocs; arena_resets; arena_fallbacks;
      dispatches; queue_rejects; steals; queue_depth_hwm;
    ];
  Alcotest.(check bool) "histogram moved" true
    (Array.exists (fun v -> v > 0) batch_hist);
  Alcotest.(check int) "latency sample recorded" 1 (Metrics.lat_count lat_hist);
  Alcotest.(check int) "latency sample in the right bucket" 1
    lat_hist.(Metrics.lat_bucket 1_500);
  Alcotest.(check (list (pair int int))) "site calls recorded"
    [ (42, 1) ] site_calls;
  Metrics.reset m;
  Alcotest.(check bool) "reset restores zero on every counter" true
    (Metrics.snapshot m = Metrics.zero)

(* --- latency histogram laws ------------------------------------- *)

let lat_hist_gen =
  QCheck.Gen.(
    array_size (return Metrics.lat_buckets) (int_bound 50)
    |> QCheck.make ~print:(fun a ->
           String.concat ";" (Array.to_list (Array.map string_of_int a))))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"lat_quantile monotone in q, bounded by buckets"
    ~count:300
    QCheck.(pair lat_hist_gen (pair (int_bound 1000) (int_bound 1000)))
    (fun (hist, (ia, ib)) ->
      let qa = float_of_int (max 1 ia) /. 1000.0
      and qb = float_of_int (max 1 ib) /. 1000.0 in
      let lo = min qa qb and hi = max qa qb in
      let p_lo = Metrics.lat_quantile hist lo
      and p_hi = Metrics.lat_quantile hist hi in
      if Metrics.lat_count hist = 0 then p_lo = 0.0 && p_hi = 0.0
      else
        p_lo <= p_hi
        && p_hi <= Metrics.lat_bucket_upper_ns (Metrics.lat_buckets - 1))

let prop_hist_merge_assoc =
  QCheck.Test.make ~name:"snapshot merge is associative and commutative"
    ~count:300
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let sa = mk_snapshot a and sb = mk_snapshot b and sc = mk_snapshot c in
      Metrics.merge (Metrics.merge sa sb) sc
      = Metrics.merge sa (Metrics.merge sb sc)
      && Metrics.merge sa sb = Metrics.merge sb sa)

(* four domains hammer [record_latency_ns] on private metrics; the
   merged histogram must hold every sample, and its quantiles must obey
   p50 <= p99 <= p999 *)
let parallel_recorders_merge () =
  let n_domains = 4 and per_domain = 5_000 in
  let parts = Array.init n_domains (fun _ -> Metrics.create ()) in
  let recorder i () =
    let st = Random.State.make [| 0xBEEF + i |] in
    for _ = 1 to per_domain do
      Metrics.record_latency_ns parts.(i) (1 + Random.State.int st 10_000_000)
    done
  in
  let ds =
    Array.init (n_domains - 1) (fun i -> Domain.spawn (recorder (i + 1)))
  in
  recorder 0 ();
  Array.iter Domain.join ds;
  let merged =
    Array.fold_left
      (fun acc m -> Metrics.merge acc (Metrics.snapshot m))
      Metrics.zero parts
  in
  Alcotest.(check int) "no sample lost in merge" (n_domains * per_domain)
    (Metrics.lat_count merged.Metrics.lat_hist);
  let q p = Metrics.lat_quantile merged.Metrics.lat_hist p in
  Alcotest.(check bool) "p50 <= p99" true (q 0.5 <= q 0.99);
  Alcotest.(check bool) "p99 <= p999" true (q 0.99 <= q 0.999)

(* one shared metrics record updated from two domains: per-bucket
   atomics must not lose counts *)
let concurrent_latency_updates () =
  let m = Metrics.create () in
  let worker () =
    for i = 1 to 10_000 do
      Metrics.record_latency_ns m i
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  Alcotest.(check int) "no lost latency samples" 20_000
    (Metrics.lat_count (Metrics.snapshot m).Metrics.lat_hist)

let table_renders_aligned () =
  let s =
    Ascii_table.render ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "20000" ] ]
  in
  let lines = String.split_on_char '\n' s in
  let widths = List.map String.length (List.filter (fun l -> l <> "") lines) in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "equal widths" w w') rest
  | [] -> Alcotest.fail "no output");
  Alcotest.(check bool) "contains header" true
    (let rec has i =
       i + 4 <= String.length s && (String.sub s i 4 = "name" || has (i + 1))
     in
     has 0)

let table_rejects_ragged_rows () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ascii_table.render ~headers:[ "a"; "b" ] [ [ "only-one" ] ]);
       false
     with Invalid_argument _ -> true)

let table_alignment_modes () =
  let s =
    Ascii_table.render ~headers:[ "l"; "r" ]
      ~aligns:[ Ascii_table.Left; Ascii_table.Right ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  (* right-aligned column pads on the left *)
  Alcotest.(check bool) "right aligned" true
    (let rec has i =
       i + 4 <= String.length s && (String.sub s i 4 = "|  1" || has (i + 1))
     in
     has 0)

let suite =
  [
    ( "stats.metrics",
      [
        Alcotest.test_case "counters accumulate" `Quick counters_accumulate;
        Alcotest.test_case "reset" `Quick reset_zeroes;
        Alcotest.test_case "diff/merge" `Quick diff_and_merge;
        Alcotest.test_case "concurrent updates" `Quick concurrent_updates;
        Alcotest.test_case "every counter covered" `Quick every_counter_covered;
        Alcotest.test_case "parallel recorders merge" `Quick
          parallel_recorders_merge;
        Alcotest.test_case "concurrent latency updates" `Quick
          concurrent_latency_updates;
        Fixtures.qcheck_case prop_merge_diff_laws;
        Fixtures.qcheck_case prop_quantile_monotone;
        Fixtures.qcheck_case prop_hist_merge_assoc;
      ] );
    ( "stats.table",
      [
        Alcotest.test_case "aligned output" `Quick table_renders_aligned;
        Alcotest.test_case "ragged rows rejected" `Quick table_rejects_ragged_rows;
        Alcotest.test_case "alignment modes" `Quick table_alignment_modes;
      ] );
  ]
