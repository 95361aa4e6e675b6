type t = {
  q : bytes Queue.t;
  m : Mutex.t;
  c : Condition.t;
  (* the last timed wait ran out and nothing has been taken since: the
     receiver is idle, and its next timed wait sleeps at once *)
  mutable dry : bool;
}

let create () =
  { q = Queue.create (); m = Mutex.create (); c = Condition.create ();
    dry = false }

let send t msg =
  Mutex.lock t.m;
  Queue.push msg t.q;
  Condition.signal t.c;
  Mutex.unlock t.m

let try_recv t =
  Mutex.lock t.m;
  let msg = Queue.take_opt t.q in
  (match msg with Some _ -> t.dry <- false | None -> ());
  Mutex.unlock t.m;
  msg

let recv_blocking t =
  Mutex.lock t.m;
  while Queue.is_empty t.q do
    Condition.wait t.c t.m
  done;
  let msg = Queue.pop t.q in
  t.dry <- false;
  Mutex.unlock t.m;
  msg

(* how long a timed wait spins before its first sleep, unless the
   receiver is idle: after a message the next one often follows within
   microseconds, sooner than a sleep wakes up *)
let spin_us = 50

let recv_deadline t ~seconds =
  (* OCaml's Condition has no timed wait: spin, then poll with short
     sleeps.  The reliable transport waits here in slices, both a
     blocked server's receive and a parallel client's await. *)
  let deadline = Clock.deadline_after seconds in
  let spin_until =
    if t.dry then 0 else min deadline (Clock.now_us () + spin_us)
  in
  let rec wait () =
    match try_recv t with
    | Some msg -> Some msg
    | None ->
        let now = Clock.now_us () in
        if now >= deadline then begin
          t.dry <- true;
          None
        end
        else if now < spin_until then begin
          Domain.cpu_relax ();
          wait ()
        end
        else begin
          Thread.yield ();
          Unix.sleepf 5e-5;
          wait ()
        end
  in
  wait ()

let clear t =
  Mutex.lock t.m;
  Queue.clear t.q;
  Mutex.unlock t.m

let is_empty t =
  Mutex.lock t.m;
  let e = Queue.is_empty t.q in
  Mutex.unlock t.m;
  e

let length t =
  Mutex.lock t.m;
  let n = Queue.length t.q in
  Mutex.unlock t.m;
  n
