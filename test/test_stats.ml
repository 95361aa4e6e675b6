(* Metrics and table-rendering tests. *)

module Metrics = Rmi_stats.Metrics
module Ascii_table = Rmi_stats.Ascii_table

let counters_accumulate () =
  let m = Metrics.create () in
  Metrics.add m Remote_rpcs 1;
  Metrics.add m Remote_rpcs 1;
  Metrics.add m Local_rpcs 1;
  Metrics.add m Reused_objs 10;
  Metrics.add m New_bytes 1024;
  Metrics.add m Cycle_lookups 3;
  Metrics.add m Ser_invocations 1;
  Metrics.add m Msgs_sent 1;
  Metrics.add m Bytes_sent 256;
  Metrics.add m Type_bytes 7;
  Metrics.add m Allocs 1;
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

let diff_and_merge () =
  let m = Metrics.create () in
  Metrics.add m Bytes_sent 100;
  let s1 = Metrics.snapshot m in
  Metrics.add m Bytes_sent 50;
  Metrics.add m Allocs 1;
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
      Metrics.add m Msgs_sent 1
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

(* every counter reaches its own snapshot field and no other: each
   counter gets a distinct amount through the one [add] (the value
   [mk_snapshot 0] holds in its field), so a field wired to another
   counter's cell, two counters sharing a cell, or a counter overlapping
   a histogram bucket reads back wrong *)
let every_counter_covered () =
  let m = Metrics.create () in
  List.iter
    (fun (c, n) -> Metrics.add m c n)
    Metrics.
      [
        (Remote_rpcs, 1); (Local_rpcs, 2); (Reused_objs, 3); (New_bytes, 4);
        (Cycle_lookups, 5); (Ser_invocations, 6); (Msgs_sent, 7);
        (Bytes_sent, 8); (Type_bytes, 9); (Allocs, 10); (Retries, 11);
        (Timeouts, 12); (Dup_drops, 13); (Acks_sent, 14); (Crashes, 15);
        (Restarts, 16); (Heartbeats_sent, 17); (Stale_drops, 18);
        (Suspects, 19); (Peer_downs, 20); (Call_retries, 21);
        (Failovers, 22); (Breaker_fastfails, 23); (Reply_cache_hits, 24);
        (Batches_sent, 25); (Batched_msgs, 26); (Unbatched_msgs, 27);
        (Outstanding_hwm, 28); (Tier_promotions, 29); (Tier_deopts, 30);
        (Plan_cache_hits, 31); (Plan_cache_misses, 32); (Bytes_copied, 42);
        (Pool_hits, 43); (Pool_misses, 44); (Arena_allocs, 49);
        (Arena_resets, 50); (Arena_fallbacks, 51); (Dispatches, 45);
        (Queue_rejects, 46); (Steals, 47); (Queue_depth_hwm, 48);
      ];
  let counters_only =
    {
      (mk_snapshot 0) with
      Metrics.batch_hist = Array.make Metrics.hist_buckets 0;
      lat_hist = Array.make Metrics.lat_buckets 0;
      site_calls = [];
    }
  in
  Alcotest.(check bool) "every field reads its own counter's amount" true
    (Metrics.snapshot m = counters_only);
  (* the recorders land in their own cells *)
  Metrics.record_batch m ~msgs:3;
  Metrics.raise_max m Outstanding_hwm 5;
  Metrics.raise_max m Queue_depth_hwm 60;
  Metrics.record_latency_ns m 1_500;
  Metrics.record_site_call m ~callsite:42;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "batch counted" 26 s.Metrics.batches_sent;
  Alcotest.(check int) "batched messages counted" 29 s.Metrics.batched_msgs;
  Alcotest.(check (array int)) "one flush in the size-3 bucket"
    (Array.init Metrics.hist_buckets (fun i ->
         if i = Metrics.hist_bucket 3 then 1 else 0))
    s.Metrics.batch_hist;
  Alcotest.(check int) "a lower peak keeps the mark" 28 s.Metrics.outstanding_hwm;
  Alcotest.(check int) "a higher peak raises the mark" 60
    s.Metrics.queue_depth_hwm;
  Alcotest.(check int) "latency sample recorded" 1
    (Metrics.lat_count s.Metrics.lat_hist);
  Alcotest.(check int) "latency sample in the right bucket" 1
    s.Metrics.lat_hist.(Metrics.lat_bucket 1_500);
  Alcotest.(check (list (pair int int))) "site calls recorded"
    [ (42, 1) ] s.Metrics.site_calls

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
