type t = {
  q : Slice_ring.t;  (* whole frames, so a push adds no cell *)
  m : Mutex.t;
  c : Condition.t;
  (* the last timed wait ran out and nothing has been taken since: the
     receiver is idle, and its next timed wait sleeps at once *)
  mutable dry : bool;
}

let create () =
  { q = Slice_ring.create (); m = Mutex.create (); c = Condition.create ();
    dry = false }

let send t msg =
  Mutex.lock t.m;
  Slice_ring.push t.q msg 0 (Bytes.length msg);
  Condition.signal t.c;
  Mutex.unlock t.m

let try_recv t s =
  Mutex.lock t.m;
  let got = Slice_ring.pop_into t.q s in
  if got then t.dry <- false;
  Mutex.unlock t.m;
  got

let recv_blocking t s =
  Mutex.lock t.m;
  while Slice_ring.is_empty t.q do
    Condition.wait t.c t.m
  done;
  ignore (Slice_ring.pop_into t.q s : bool);
  t.dry <- false;
  Mutex.unlock t.m

(* how long a timed wait spins before its first sleep, unless the
   receiver is idle: after a message the next one often follows within
   microseconds, sooner than a sleep wakes up *)
let spin_us = 50

let recv_deadline t ~seconds s =
  (* OCaml's Condition has no timed wait: spin, then poll with short
     sleeps.  The reliable transport waits here in slices, both a
     blocked server's receive and a parallel client's await. *)
  let deadline = Clock.deadline_after seconds in
  let spin_until =
    if t.dry then 0 else min deadline (Clock.now_us () + spin_us)
  in
  let rec wait () =
    try_recv t s
    ||
    let now = Clock.now_us () in
    if now >= deadline then begin
      t.dry <- true;
      false
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
  ignore (Slice_ring.take_all t.q : bytes list);
  Mutex.unlock t.m

let is_empty t =
  Mutex.lock t.m;
  let e = Slice_ring.is_empty t.q in
  Mutex.unlock t.m;
  e

let length t =
  Mutex.lock t.m;
  let n = Slice_ring.length t.q in
  Mutex.unlock t.m;
  n
