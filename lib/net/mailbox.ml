type t = { q : bytes Queue.t; m : Mutex.t; c : Condition.t }

let create () = { q = Queue.create (); m = Mutex.create (); c = Condition.create () }

let send t msg =
  Mutex.lock t.m;
  Queue.push msg t.q;
  Condition.signal t.c;
  Mutex.unlock t.m

let try_recv t =
  Mutex.lock t.m;
  let msg = Queue.take_opt t.q in
  Mutex.unlock t.m;
  msg

let recv_blocking t =
  Mutex.lock t.m;
  while Queue.is_empty t.q do
    Condition.wait t.c t.m
  done;
  let msg = Queue.pop t.q in
  Mutex.unlock t.m;
  msg

let recv_deadline t ~seconds =
  (* OCaml's Condition has no timed wait; poll with short sleeps.  Only
     the reliable transport's retransmit driver uses this, with
     millisecond deadlines. *)
  let deadline = Clock.deadline_after seconds in
  let rec wait () =
    match try_recv t with
    | Some msg -> Some msg
    | None ->
        if Clock.now_us () >= deadline then None
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
