type profile = {
  drop : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  max_delay : int;
}

let default_lossy =
  { drop = 0.12; duplicate = 0.08; reorder = 0.12; corrupt = 0.08; max_delay = 3 }

let lossless =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; corrupt = 0.0; max_delay = 1 }

(* ------------------------------------------------------------------ *)
(* process faults                                                      *)
(* ------------------------------------------------------------------ *)

type durability = Durable | Amnesia

let durability_label = function Durable -> "durable" | Amnesia -> "amnesia"

type crash_spec = {
  victim : int;
  crash_at : int;              (* frame-clock value that triggers the crash *)
  restart_after : int option;  (* frames of outage; None = stays down *)
  durability : durability;
}

type transition =
  | Crashed of { machine : int; durability : durability }
  | Restarted of { machine : int; epoch : int; durability : durability }

(* per-machine process state *)
type proc = {
  mutable down : bool;
  mutable epoch : int;
  mutable restart_at : int option;  (* clock value when it comes back *)
  mutable proc_durability : durability;
}

(* one splitmix64 stream per directed link, so the schedule of a link
   depends only on the seed and on that link's frame sequence — not on
   how sends interleave across links *)
type link = {
  mutable state : int64;
  mutable held : (int * bytes) list;  (* sends-to-go before release *)
  mutable count : int;                (* frames sent on this link *)
}

type t = {
  seed : int;
  n : int;
  profile : profile;
  links : link array;
  procs : proc array;
  mutable plan : crash_spec list;        (* sorted by crash_at *)
  mutable clock : int;                   (* global frame counter *)
  mutable transitions : transition list; (* newest first; drained by Cluster *)
  log : Buffer.t;
  lock : Mutex.t;
  (* the transport's frame pool, once attached: frames returned and
     frames held back each hold one of its frames *)
  mutable frames : Frame_pool.t option;
}

let mix_init seed idx =
  Int64.add
    (Int64.mul (Int64.of_int (idx + 1)) 0x9E3779B97F4A7C15L)
    (Int64.mul (Int64.of_int seed) 0xBF58476D1CE4E5B9L)

let create ~seed ~n profile =
  if n < 1 then invalid_arg "Fault_sim.create: need at least one machine";
  if profile.max_delay < 1 then invalid_arg "Fault_sim.create: max_delay >= 1";
  {
    seed;
    n;
    profile;
    links =
      Array.init (n * n) (fun idx ->
          { state = mix_init seed idx; held = []; count = 0 });
    procs =
      Array.init n (fun _ ->
          { down = false; epoch = 0; restart_at = None;
            proc_durability = Durable });
    plan = [];
    clock = 0;
    transitions = [];
    log = Buffer.create 256;
    lock = Mutex.create ();
    frames = None;
  }

let seed t = t.seed
let set_frame_pool t pool = t.frames <- Some pool

let hold t frame =
  match t.frames with None -> () | Some p -> Frame_pool.hold p frame

let let_go t frame =
  match t.frames with None -> () | Some p -> Frame_pool.release p frame

let next_u64 link =
  link.state <- Int64.add link.state 0x9E3779B97F4A7C15L;
  let z = link.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float link =
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (next_u64 link) 11)
  *. (1.0 /. 9007199254740992.0)

(* a non-negative native int: 62 random bits, so Int64.to_int cannot
   wrap into the sign bit of OCaml's 63-bit int *)
let nat link = Int64.to_int (Int64.shift_right_logical (next_u64 link) 2)

let logf t fmt = Printf.ksprintf (fun s -> Buffer.add_string t.log s) fmt

(* ------------------------------------------------------------------ *)
(* crash plan                                                          *)
(* ------------------------------------------------------------------ *)

let set_crash_plan t plan =
  List.iter
    (fun c ->
      if c.victim < 0 || c.victim >= t.n then
        invalid_arg "Fault_sim.set_crash_plan: bad victim";
      if c.crash_at < 1 then
        invalid_arg "Fault_sim.set_crash_plan: crash_at >= 1";
      match c.restart_after with
      | Some r when r < 1 ->
          invalid_arg "Fault_sim.set_crash_plan: restart_after >= 1"
      | _ -> ())
    plan;
  Mutex.lock t.lock;
  t.plan <- List.sort (fun a b -> compare a.crash_at b.crash_at) plan;
  Mutex.unlock t.lock

let seeded_crash_plan ~seed ~n ?(crashes = 1) ?(durability = Durable)
    ?(max_gap = 40) ?(max_outage = 30) () =
  if n < 2 then invalid_arg "Fault_sim.seeded_crash_plan: need >= 2 machines";
  if crashes < 0 then invalid_arg "Fault_sim.seeded_crash_plan: crashes >= 0";
  (* a private splitmix stream, disjoint from every link stream *)
  let rng = { state = mix_init seed (n * n + 7); held = []; count = 0 } in
  let rec gen i prev acc =
    if i >= crashes then List.rev acc
    else
      (* machine 0 drives the workload in the harness, so victims are
         drawn from 1..n-1 *)
      let victim = 1 + (nat rng mod (n - 1)) in
      let crash_at = prev + 1 + (nat rng mod max_gap) in
      let restart_after = Some (1 + (nat rng mod max_outage)) in
      let spec = { victim; crash_at; restart_after; durability } in
      gen (i + 1) (crash_at + Option.get restart_after) (spec :: acc)
  in
  gen 0 0 []

(* must be called with [t.lock] held *)
let purge_held_to t ~dest =
  Array.iteri
    (fun idx link ->
      if idx mod t.n = dest && link.held <> [] then begin
        logf t "%d->%d purge %d held\n" (idx / t.n) dest
          (List.length link.held);
        List.iter (fun (_, f) -> let_go t f) link.held;
        link.held <- []
      end)
    t.links

(* fire due restarts, then due crashes; with [t.lock] held *)
let process_events t =
  Array.iteri
    (fun m p ->
      match p.restart_at with
      | Some at when p.down && at <= t.clock ->
          p.down <- false;
          p.restart_at <- None;
          p.epoch <- p.epoch + 1;
          logf t "restart m%d @%d epoch=%d\n" m t.clock p.epoch;
          t.transitions <-
            Restarted
              { machine = m; epoch = p.epoch; durability = p.proc_durability }
            :: t.transitions
      | _ -> ())
    t.procs;
  let due, rest = List.partition (fun c -> c.crash_at <= t.clock) t.plan in
  t.plan <- rest;
  List.iter
    (fun c ->
      let p = t.procs.(c.victim) in
      if not p.down then begin
        p.down <- true;
        p.proc_durability <- c.durability;
        p.restart_at <- Option.map (fun r -> t.clock + r) c.restart_after;
        logf t "crash m%d @%d %s%s\n" c.victim t.clock
          (durability_label c.durability)
          (match c.restart_after with
          | None -> " forever"
          | Some r -> Printf.sprintf " outage=%d" r);
        (* frames queued toward the victim die with its mailbox; frames
           it already emitted stay held, to exercise epoch fencing *)
        purge_held_to t ~dest:c.victim;
        t.transitions <-
          Crashed { machine = c.victim; durability = c.durability }
          :: t.transitions
      end)
    due

let on_send t ~src ~dest frame =
  if src < 0 || src >= t.n || dest < 0 || dest >= t.n then
    invalid_arg "Fault_sim.on_send: bad machine id";
  Mutex.lock t.lock;
  (* the frame clock: crash/restart events are a pure function of the
     seed and the global send sequence, never of wall time or idle
     polling, so schedules replay byte-for-byte *)
  t.clock <- t.clock + 1;
  process_events t;
  let out =
    if t.procs.(src).down then begin
      (* a dead machine emits nothing; no randomness is consumed, so
         the link stream realigns identically on replay *)
      logf t "%d->%d dead-src drop @%d\n" src dest t.clock;
      []
    end
    else if t.procs.(dest).down then begin
      logf t "%d->%d dead-dest drop @%d\n" src dest t.clock;
      []
    end
    else begin
      let link = t.links.((src * t.n) + dest) in
      link.count <- link.count + 1;
      let frameno = link.count in
      (* a fixed number of samples per frame, drawn whether or not each
         fault fires, keeps the stream aligned across replays *)
      let u_drop = unit_float link in
      let u_dup = unit_float link in
      let u_hold = unit_float link in
      let u_corrupt = unit_float link in
      let s_delay = nat link in
      let s_pos = nat link in
      let p = t.profile in
      let frame =
        if u_corrupt < p.corrupt && Bytes.length frame > 0 then begin
          let frame = Bytes.copy frame in
          let pos = s_pos mod Bytes.length frame in
          let bit = s_pos / Bytes.length frame mod 8 in
          Bytes.set frame pos
            (Char.chr (Char.code (Bytes.get frame pos) lxor (1 lsl bit)));
          logf t "%d->%d #%d corrupt %d.%d\n" src dest frameno pos bit;
          frame
        end
        else frame
      in
      let now =
        if u_drop < p.drop then begin
          logf t "%d->%d #%d drop\n" src dest frameno;
          []
        end
        else if u_hold < p.reorder then begin
          let k = 1 + (s_delay mod p.max_delay) in
          hold t frame;
          link.held <- link.held @ [ (k, frame) ];
          logf t "%d->%d #%d hold %d\n" src dest frameno k;
          []
        end
        else if u_dup < p.duplicate then begin
          logf t "%d->%d #%d dup\n" src dest frameno;
          hold t frame;
          hold t frame;
          [ frame; frame ]
        end
        else begin
          hold t frame;
          [ frame ]
        end
      in
      (* age held frames; expired ones release after the current frame,
         which is what actually reorders the link.  Each keeps the hold
         it took when held back, now the caller's. *)
      let released = ref [] in
      link.held <-
        List.filter_map
          (fun (k, f) ->
            if k <= 1 then begin
              released := f :: !released;
              logf t "%d->%d release\n" src dest;
              None
            end
            else Some (k - 1, f))
          link.held;
      now @ List.rev !released
    end
  in
  Mutex.unlock t.lock;
  out

let take_transitions t =
  Mutex.lock t.lock;
  let ts = List.rev t.transitions in
  t.transitions <- [];
  Mutex.unlock t.lock;
  ts

let is_down t m =
  Mutex.lock t.lock;
  let d = t.procs.(m).down in
  Mutex.unlock t.lock;
  d

let epoch_of t m =
  Mutex.lock t.lock;
  let e = t.procs.(m).epoch in
  Mutex.unlock t.lock;
  e

let frame_clock t =
  Mutex.lock t.lock;
  let c = t.clock in
  Mutex.unlock t.lock;
  c

let held_frames t =
  Mutex.lock t.lock;
  let n = Array.fold_left (fun acc l -> acc + List.length l.held) 0 t.links in
  Mutex.unlock t.lock;
  n

let digest t =
  Mutex.lock t.lock;
  let s = Buffer.contents t.log in
  Mutex.unlock t.lock;
  s
