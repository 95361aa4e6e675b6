(* Closed-loop trials, the traced trial, and the metrics derived from
   them.

   A trial builds a fresh fabric, keeps [window] calls outstanding from
   one client thread (await the oldest, start the next), warms up
   untimed, measures, drains, and tears the fabric down: no two fabrics
   are ever live at once.  Per-call latency runs from just before
   [call_async] to the return of [Future.await].

   Times are reported at the host's quiet speed: each trial's rate,
   set-up and latencies are scaled by [Stats.host_speed], measured just
   before and just after the trial while no fabric is live.  Of the
   set-up only the process's CPU time is scaled: matrix-sock's is
   mostly a 20 ms sleep, which a slow host does not stretch.  The
   factor is kept with the trial, so raw rates and latencies can be
   recovered. *)

module W = Workloads
module Fabric = Rmi.Fabric
module Node = Rmi.Node
module Metrics = Rmi.Metrics
module Transport = Rmi.Transport
module App = Rmi_apps.App_common
module Samples = Stats.Samples

type trial = {
  host_speed : float;  (* mean of Stats.host_speed before and after *)
  rate : float;  (* calls completed per second of the measured window *)
  completed : int;  (* calls awaited inside the measured window *)
  attempted : int;  (* every call awaited in the trial *)
  failed : int;  (* of those, raised or failed a check (+1 per failed trial check) *)
  other_call : int;  (* of those, held a whole reply to another call *)
  setup_s : float;  (* compile, then Fabric.create until the first call returned *)
  setup_cpu_s : float;  (* process CPU time spent in that set-up *)
  compile_ms : float;  (* Pass_manager time of that compile *)
  p50_us : float;
  p99_us : float;
  minor_words : float;  (* process-wide, over the measured window *)
  promoted_words : float;
  major_collections : int;
  counters : Metrics.snapshot;  (* deltas over the measured window *)
  outstanding_hwm : int;  (* high-water marks over the whole trial *)
  queue_depth_hwm : int;
  frames : int;  (* frames the trace hook saw in the window *)
}

let seconds_ns s = int_of_float (s *. 1e9)

(* one trial in raw times, and the range of [samples] it added *)
let closed_loop (w : W.t) (c : App.compiled) (inp : W.inputs) ~seed ~warm ~measure
    ~samples ?probe () =
  let metrics = Metrics.create () in
  (* set-up starts from the app's model: App_common.compile on the
     program again is the recompile path Plan_store uses *)
  let t_create = Stats.now_ns () and cpu_create = Sys.time () in
  let c' = App.compile c.prog in
  let faults =
    if w.lossy then
      Some (Rmi.Fault_sim.create ~seed ~n:2 Rmi.Fault_sim.default_lossy)
    else None
  in
  let fabric =
    Fabric.create ~mode:w.mode ~backend:w.backend ?faults ~n:2 ~meta:c'.meta
      ~config:w.config ~plans:c'.plans ~metrics ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fabric.stop fabric;
      Fabric.shutdown_net fabric)
  @@ fun () ->
  (* Sock copies every frame while a hook is installed, which would
     change the path being measured, so only Sim gets one *)
  (match probe with
  | Some p when w.backend = Fabric.Sim ->
      Transport.set_fault_hook (Fabric.net fabric)
        (Probe.hook p ~enveloped:(w.config.Rmi.Config.transport = Rmi.Config.Reliable))
  | _ -> ());
  inp.export fabric probe;
  Fabric.start fabric;
  let client = Fabric.node fabric 0 in
  let window = w.window in
  let attempted = ref 0 and failed = ref 0 and other_call = ref 0 in
  (* call index and start time of the latest [launch] *)
  let next = ref 0 and started_at = ref 0 in
  let launch () =
    let k = !next in
    incr next;
    let dest = inp.dest k and args = inp.args k in
    let i = match probe with Some p -> Probe.slot p k | None -> -1 in
    let t = Stats.now_ns () in
    started_at := t;
    let f =
      Node.call_async client ~dest ~meth:inp.meth ~callsite:inp.site
        ~has_ret:inp.has_ret args
    in
    (match probe with
    | Some p when i >= 0 ->
        p.Probe.start.(i) <- t;
        p.Probe.sent.(i) <- Stats.now_ns ();
        p.Probe.local.(i) <- dest.Rmi.Remote_ref.machine = 0
    | _ -> ());
    f
  in
  let settle k f =
    incr attempted;
    match Node.Future.await f with
    | v -> (
        match inp.check k v with
        | W.Right -> ()
        | W.Other_call -> incr other_call
        | W.Wrong -> incr failed)
    | exception _ -> incr failed
  in
  (* set-up ends when the first call has returned *)
  let f0 = launch () in
  settle 0 f0;
  let setup_s = Stats.seconds_between t_create (Stats.now_ns ()) in
  let setup_cpu_s = Sys.time () -. cpu_create in
  let futs = Array.make window f0 and started = Array.make window 0 in
  let ks = Array.make window 0 in
  let launch_into s =
    futs.(s) <- launch ();
    started.(s) <- !started_at;
    ks.(s) <- !next - 1
  in
  for s = 0 to window - 1 do
    launch_into s
  done;
  let slot = ref 0 in
  (* await the oldest call, optionally record it, refill its slot;
     returns the await-return time *)
  let step ~record ~refill =
    let s = !slot in
    settle ks.(s) futs.(s);
    let t = Stats.now_ns () in
    if record then begin
      Samples.add samples (t - started.(s));
      match probe with
      | Some p ->
          let i = Probe.slot p ks.(s) in
          if i >= 0 then p.Probe.await.(i) <- t
      | None -> ()
    end;
    if refill then launch_into s;
    slot := (s + 1) mod window;
    t
  in
  let last = ref (Stats.now_ns ()) in
  let warm_end = !last + seconds_ns warm in
  while !last < warm_end do
    last := step ~record:false ~refill:true
  done;
  (match probe with
  | Some p ->
      p.Probe.base <- !next;
      p.Probe.on <- true
  | None -> ());
  let lat_lo = Samples.length samples in
  let frames0 = match probe with Some p -> Atomic.get p.Probe.frames | None -> 0 in
  let g0 = Gc.quick_stat () and m0 = Metrics.snapshot metrics in
  let t_start = Stats.now_ns () in
  let deadline = t_start + seconds_ns measure in
  let completed = ref 0 in
  last := t_start;
  while !last < deadline do
    last := step ~record:true ~refill:true;
    incr completed
  done;
  let t_end = !last in
  let g1 = Gc.quick_stat () and m1 = Metrics.snapshot metrics in
  let frames1 = match probe with Some p -> Atomic.get p.Probe.frames | None -> 0 in
  for _ = 1 to window do
    ignore (step ~record:true ~refill:false : int)
  done;
  if not (inp.trial_ok ()) then incr failed;
  let lat_hi = Samples.length samples in
  let trial =
    {
      host_speed = 1.;
      rate = float !completed /. Stats.seconds_between t_start t_end;
      completed = !completed;
      attempted = !attempted;
      failed = !failed;
      other_call = !other_call;
      setup_s;
      setup_cpu_s;
      compile_ms =
        List.fold_left
          (fun acc s -> acc +. s.Rmi.Internals.Pass_manager.pass_ms)
          0. c'.opt.Rmi.Internals.Optimizer.passes;
      (* quantiles are taken by [run_trial], once the samples are scaled *)
      p50_us = Float.nan;
      p99_us = Float.nan;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      counters = Metrics.diff m1 m0;
      outstanding_hwm = m1.Metrics.outstanding_hwm;
      queue_depth_hwm = m1.Metrics.queue_depth_hwm;
      frames = frames1 - frames0;
    }
  in
  (trial, lat_lo, lat_hi)

(* the reading taken after one trial is the one before the next *)
let last_speed = ref None

let run_trial w c inp ~seed ~warm ~measure ~samples ?probe () =
  let before =
    match !last_speed with Some s -> s | None -> Stats.host_speed ()
  in
  let raw, lo, hi = closed_loop w c inp ~seed ~warm ~measure ~samples ?probe () in
  let after = Stats.host_speed () in
  last_speed := Some after;
  let speed = (before +. after) /. 2. in
  Samples.scale samples ~lo ~hi speed;
  (* with the pool's domain spinning, CPU time can exceed wall time *)
  let cpu = Float.min raw.setup_cpu_s raw.setup_s in
  {
    raw with
    host_speed = speed;
    rate = raw.rate /. speed;
    setup_s = raw.setup_s -. cpu +. (cpu *. speed);
    p50_us = Samples.quantile_us samples ~lo ~hi 0.5;
    p99_us = Samples.quantile_us samples ~lo ~hi 0.99;
  }

(* ------------------------------------------------------------------ *)
(* one workload's accumulated runs                                     *)
(* ------------------------------------------------------------------ *)

type traced = { t_trial : trial; probe : Probe.t }

type state = {
  w : W.t;
  c : App.compiled;
  inp : W.inputs;
  seed : int;
  samples : Samples.t;
  mutable trials : trial list;  (* newest first *)
  mutable traced : traced option;
  mutable replay : Replay.t option;
}

let prepare (w : W.t) ~seed =
  let c = w.compiled () in
  let inp = w.prepare ~seed c in
  (* each trial's set-up recompiles the model; it must give the plan
     the inputs were made for *)
  if Hashtbl.find (App.compile c.prog).plans inp.site <> Hashtbl.find c.plans inp.site then
    failwith "benchmark: recompiling the model changed its plan";
  {
    w;
    c;
    inp;
    seed;
    samples = Samples.create ();
    trials = [];
    traced = None;
    replay = None;
  }

let trace_cap = 20_000

let add_trial st ~warm ~measure =
  let tr =
    run_trial st.w st.c st.inp ~seed:st.seed ~warm ~measure ~samples:st.samples ()
  in
  st.trials <- tr :: st.trials

let add_traced st ~warm ~measure ~reps =
  let probe = Probe.create trace_cap in
  let t_trial =
    run_trial st.w st.c st.inp ~seed:st.seed ~warm ~measure ~samples:(Samples.create ())
      ~probe ()
  in
  st.traced <- Some { t_trial; probe };
  st.replay <- Some (Replay.run st.w st.c st.inp ~reps)

let trials st = List.rev st.trials
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
(* every trial, traced one included *)
let all_trials st =
  match st.traced with Some t -> t.t_trial :: trials st | None -> trials st

let attempted st = sum (fun t -> t.attempted) (all_trials st)
let failed st = sum (fun t -> t.failed) (all_trials st)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* A metric value plus, for end-to-end metrics, its per-trial values
   (what [compare] takes the spread of). *)
type metric = { name : string; unit_ : string; value : float; per_trial : float list }

let m ?(per_trial = []) name unit_ value = { name; unit_; value; per_trial }

(* Must agree with BENCHMARK.json; the smoke check holds them to it.
   Latency quantiles are taken over every call of every untraced
   trial, pooled. *)
let end_to_end st =
  let ts = trials st in
  let completed = float (sum (fun t -> t.completed) ts) in
  let per f = List.map f ts in
  [
    m "lat_p50_us" "us" (Samples.quantile_us st.samples 0.5)
      ~per_trial:(per (fun t -> t.p50_us));
    m "setup_s" "s" (Stats.median (per (fun t -> t.setup_s)))
      ~per_trial:(per (fun t -> t.setup_s));
    m "minor_words_per_call" "words"
      (List.fold_left (fun acc t -> acc +. t.minor_words) 0. ts /. completed)
      ~per_trial:(per (fun t -> t.minor_words /. float t.completed));
  ]

(* printed and recorded, not in BENCHMARK.json.  The rate and the
   tail follow stalls of the two-thread workloads (matrix-sock,
   web-lossy-pool) that last for minutes on a shared host and that
   the host-speed reading does not see, so no bound holds them (see
   README); error_rate must be 0 and is gated by [compare] on its own;
   other_call_share counts web-lossy-pool's awaited pages that were a
   later call's reply *)
let end_to_end_extra st =
  let calls = float (max 1 (attempted st)) in
  let per f = List.map f (trials st) in
  [
    m "calls_per_s" "calls/s" (Stats.median (per (fun t -> t.rate)))
      ~per_trial:(per (fun t -> t.rate));
    m "lat_p99_us" "us" (Samples.quantile_us st.samples 0.99)
      ~per_trial:(per (fun t -> t.p99_us));
    m "lat_p999_us" "us" (Samples.quantile_us st.samples 0.999);
    m "lat_max_us" "us" (Samples.max_us st.samples ());
    m "lat_samples" "count" (float (Samples.length st.samples));
    m "error_rate" "fraction" (float (failed st) /. calls);
    m "other_call_share" "fraction"
      (float (sum (fun t -> t.other_call) (all_trials st)) /. calls);
    m "host_speed" "fraction" (Stats.median (per (fun t -> t.host_speed)))
      ~per_trial:(per (fun t -> t.host_speed));
  ]

(* traced-call phases, in us, over the calls whose boundaries were all
   captured and in order *)
type phases = {
  covered : int;
  stamped : int;
  req_path : float list;
  execute : float list;
  reply_path : float list;
  client_send : float list;
  server_turn : float list;
}

let phases st (tr : traced) =
  let p = tr.probe in
  let hooked = st.w.backend = Fabric.Sim in
  let us a b = float (b - a) /. 1e3 in
  let acc = ref [] and stamped = ref 0 in
  for i = p.Probe.cap - 1 downto 0 do
    let sta = p.Probe.start.(i) and ent = p.Probe.entry.(i) in
    let ext = p.Probe.exit_.(i) and aw = p.Probe.await.(i) in
    if sta > 0 then begin
      incr stamped;
      let remote = not p.Probe.local.(i) in
      let rq = p.Probe.req_dep.(i) and rp = p.Probe.rep_dep.(i) in
      let in_order = sta <= ent && ent <= ext && ext <= aw && ent > 0 in
      let frames_ok =
        (not (hooked && remote)) || (sta <= rq && rq <= ent && ext <= rp && rp <= aw && rq > 0)
      in
      if in_order && frames_ok then acc := (i, remote) :: !acc
    end
  done;
  let ok = !acc in
  let over f l = List.map (fun (i, _) -> f i) l in
  let remote = List.filter snd ok in
  {
    covered = List.length ok;
    stamped = !stamped;
    req_path = over (fun i -> us p.Probe.start.(i) p.Probe.entry.(i)) ok;
    execute = over (fun i -> us p.Probe.entry.(i) p.Probe.exit_.(i)) ok;
    reply_path = over (fun i -> us p.Probe.exit_.(i) p.Probe.await.(i)) ok;
    (* without a hook (Sock), the request has been written when
       call_async returns and the reply path is not observable *)
    client_send =
      over
        (fun i ->
          us p.Probe.start.(i) (if hooked then p.Probe.req_dep.(i) else p.Probe.sent.(i)))
        remote;
    server_turn =
      over
        (fun i ->
          if hooked then us p.Probe.req_dep.(i) p.Probe.rep_dep.(i)
          else us p.Probe.sent.(i) p.Probe.exit_.(i))
        remote;
  }

let per_layer st =
  match (st.traced, st.replay) with
  | Some tr, Some rp ->
      let ts = trials st in
      let c =
        List.fold_left (fun acc t -> Metrics.merge acc t.counters) Metrics.zero ts
      in
      let hwm f = float (List.fold_left (fun acc t -> max acc (f t)) 0 ts) in
      let calls = float (sum (fun t -> t.completed) ts) in
      let per x = float x /. calls in
      let share a b = if a + b = 0 then 0. else float a /. float (a + b) in
      let ph = phases st tr in
      let q l p = if l = [] then Float.nan else Stats.quantile l p in
      let untraced_p50 = Samples.quantile_us st.samples 0.5 in
      let frames_per_call =
        if st.w.backend = Fabric.Sim then
          float tr.t_trial.frames /. float tr.t_trial.completed
        else per c.Metrics.msgs_sent
      in
      [
        m "runtime.req_path_p50_us" "us" (q ph.req_path 0.5);
        m "runtime.req_path_p99_us" "us" (q ph.req_path 0.99);
        m "runtime.execute_p50_us" "us" (q ph.execute 0.5);
        m "runtime.reply_path_p50_us" "us" (q ph.reply_path 0.5);
        m "runtime.reply_path_p99_us" "us" (q ph.reply_path 0.99);
        m "runtime.queue_depth_hwm" "count" (hwm (fun t -> t.queue_depth_hwm));
        m "runtime.rejects_per_call" "count" (per c.Metrics.queue_rejects);
        m "runtime.local_share" "fraction" (share c.Metrics.local_rpcs c.Metrics.remote_rpcs);
        m "runtime.outstanding_hwm" "count" (hwm (fun t -> t.outstanding_hwm));
        m "net.client_send_p50_us" "us" (q ph.client_send 0.5);
        m "net.server_turn_p50_us" "us" (q ph.server_turn 0.5);
        m "net.frames_per_call" "count" frames_per_call;
        m "net.acks_per_call" "count" (per c.Metrics.acks_sent);
        m "net.msgs_per_call" "count" (per c.Metrics.msgs_sent);
        m "net.bytes_per_call" "bytes" (per c.Metrics.bytes_sent);
        m "net.retries_per_call" "count" (per c.Metrics.retries);
        m "net.dup_drops_per_call" "count" (per c.Metrics.dup_drops);
        m "net.batch_share" "fraction" (share c.Metrics.batched_msgs c.Metrics.unbatched_msgs);
        m "net.frame_ns" "ns" rp.Replay.frame_ns;
        m "net.transport_rtt_us" "us" rp.Replay.transport_rtt_us;
        m "wire.bytes_copied_per_call" "bytes" (per c.Metrics.bytes_copied);
        m "wire.pool_hit_share" "fraction" (share c.Metrics.pool_hits c.Metrics.pool_misses);
        m "wire.request_bytes" "bytes" (float rp.Replay.request_bytes);
        m "wire.reply_bytes" "bytes" (float rp.Replay.reply_bytes);
        m "serial.arg_encode_ns" "ns" rp.Replay.arg_encode_ns;
        m "serial.arg_decode_ns" "ns" rp.Replay.arg_decode_ns;
        m "serial.ret_encode_ns" "ns" rp.Replay.ret_encode_ns;
        m "serial.ret_decode_ns" "ns" rp.Replay.ret_decode_ns;
        m "serial.encode_words" "words" rp.Replay.encode_words;
        m "serial.decode_words" "words" rp.Replay.decode_words;
        m "serial.arena_allocs_per_call" "count" (per c.Metrics.arena_allocs);
        m "serial.arena_fallback_share" "fraction"
          (if c.Metrics.arena_allocs = 0 then 0.
           else float c.Metrics.arena_fallbacks /. float c.Metrics.arena_allocs);
        m "serial.reused_objs_per_call" "count" (per c.Metrics.reused_objs);
        m "serial.allocs_per_call" "count" (per c.Metrics.allocs);
        m "serial.cycle_lookups_per_call" "count" (per c.Metrics.cycle_lookups);
        m "serial.type_bytes_per_call" "bytes" (per c.Metrics.type_bytes);
        m "core.compile_ms" "ms" (Stats.median (List.map (fun t -> t.compile_ms) ts));
        m "core.plan_steps" "count" (float rp.Replay.plan_steps);
        m "gc.promoted_words_per_call" "words"
          (List.fold_left (fun acc t -> acc +. t.promoted_words) 0. ts /. calls);
        m "gc.major_collections_per_1k_calls" "count"
          (1000. *. per (sum (fun t -> t.major_collections) ts));
        m "trace.overhead_p50_pct" "%" (100. *. ((tr.t_trial.p50_us /. untraced_p50) -. 1.));
        m "trace.coverage" "fraction"
          (if ph.stamped = 0 then 0. else float ph.covered /. float ph.stamped);
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Chrome trace-event output                                           *)
(* ------------------------------------------------------------------ *)

(* one "X" span per phase of each traced call; spans of one call share
   its id.  Lane 0 holds whole calls, lane 1 the handler phases, lane
   2 the frame phases. *)
let chrome_events ~pid st =
  match st.traced with
  | None -> []
  | Some tr ->
      let p = tr.probe in
      let t0 = ref max_int in
      Array.iter (fun t -> if t > 0 && t < !t0 then t0 := t) p.Probe.start;
      let ev i lane name a b =
        if a > 0 && b >= a then
          Some
            (Json.Obj
               [
                 ("name", Json.Str name);
                 ("cat", Json.Str st.w.name);
                 ("ph", Json.Str "X");
                 ("ts", Json.Num (float (a - !t0) /. 1e3));
                 ("dur", Json.Num (float (b - a) /. 1e3));
                 ("pid", Json.Num (float pid));
                 ("tid", Json.Num (float lane));
                 ("id", Json.Num (float i));
                 ("args", Json.Obj [ ("call", Json.Num (float i)) ]);
               ])
        else None
      in
      List.concat_map
        (fun i ->
          List.filter_map Fun.id
            [
              ev i 0 "call" p.Probe.start.(i) p.Probe.await.(i);
              ev i 1 "req_path" p.Probe.start.(i) p.Probe.entry.(i);
              ev i 1 "execute" p.Probe.entry.(i) p.Probe.exit_.(i);
              ev i 1 "reply_path" p.Probe.exit_.(i) p.Probe.await.(i);
              ev i 2 "client_send" p.Probe.start.(i) p.Probe.req_dep.(i);
              ev i 2 "server_turn" p.Probe.req_dep.(i) p.Probe.rep_dep.(i);
            ])
        (List.init p.Probe.cap Fun.id)
      @ [
          Json.Obj
            [
              ("name", Json.Str "process_name");
              ("ph", Json.Str "M");
              ("pid", Json.Num (float pid));
              ("args", Json.Obj [ ("name", Json.Str st.w.name) ]);
            ];
        ]
