module Msgbuf = Rmi_wire.Msgbuf
module Metrics = Rmi_stats.Metrics

(* frames larger than this are a protocol error, not a workload *)
let max_frame = 64 * 1024 * 1024

(* the unit of a conn's stream buffers: a read buffer holds at least
   it, and the send buffer never grows past it — so one flush is one
   write(2), whose copy through the runtime's I/O buffer is capped at
   64 KiB *)
let chunk = 65536

(* read buffers per conn: the one being read into, and spares that
   still hold frames handed up but not yet released *)
let read_slots = 4

let mesh_timeout = 30.0
let connect_retry_every = 0.05

(* mesh-formation polling: capped exponential from 50 us, so a loopback
   mesh that forms in a few hundred microseconds is seen at once, while
   peer processes still booting are polled at most every 20 ms *)
let mesh_poll_first = 50e-6
let mesh_poll_cap = 0.02

(* reconnection backoff: capped exponential, scaled by a deterministic
   per-(link, attempt) jitter so concurrent reconnectors desynchronize
   without consuming randomness *)
let backoff_base = 0.01
let backoff_cap = 0.32

module M = struct
  (* one of a conn's read buffers.  [held] counts the frames handed up
     as slices of [rb] whose release is outstanding; while it is
     positive no byte before the parse position is written again.
     [rb] is replaced only under the conn's [rblock]. *)
  type rslot = { mutable rb : Bytes.t; held : int Atomic.t }

  type conn = {
    fd : Unix.file_descr;
    owner : int;  (* hosted endpoint this is a channel of *)
    peer : int;
    wlock : Mutex.t;  (* stream integrity: one frame at a time *)
    (* one reader at a time: [rbuf]/[rlen] are read and parsed, and
       [alive] is cleared and [fd] closed, only under it — so no reader
       can read through a descriptor that was closed (and perhaps
       reused by a fresh dial) under it *)
    rlock : Mutex.t;
    mutable alive : bool;
    (* stream reassembly, under [rlock]: frames handed up lie before
       [rpos] in [rcur.rb], the bytes read but not yet parsed in
       [rcur.rb.(rpos..rlen)] *)
    rslots : rslot array;  (* [read_slots] of them, [rcur] among them *)
    mutable rcur : rslot;
    mutable rpos : int;
    mutable rlen : int;
    rblock : Mutex.t;  (* slot replacement vs [release]'s lookup *)
    (* loopback: this conn's share of [t.inflight] — frames the far end
       wrote toward [owner] but that haven't been parsed out of this
       (receiving) record yet, reclaimed wholesale on [kill_conn] so a
       dying link cannot leave [pending_anywhere] pinned forever *)
    cinflight : int Atomic.t;
    (* the send buffer ("cork"), under [wlock]: frames toward an
       endpoint hosted in this process wait here until a thread about to
       poll writes them out ([flush_corked]), or the sender finds the
       destination's receiver blocked in [poll] *)
    mutable wbuf : Bytes.t;  (* empty until first used, then [chunk] bytes *)
    mutable wlen : int;
    (* how many frames in [wbuf] are charged in flight, all of them to
       the receiving record [wrc] (see [charge_frame]) *)
    mutable wframes : int;
    mutable wrc : conn option;
    hdr : Bytes.t;  (* the length prefix of an unbuffered [ship_frame] *)
    mutable listed : bool;  (* on [t.corked]; under [t.dlock] *)
  }

  (* accepted, but the 4-byte hello naming the peer hasn't arrived *)
  type pending_conn = {
    pfd : Unix.file_descr;
    powner : int;
    hello : Bytes.t;
    mutable hlen : int;
  }

  (* the poll set of one endpoint's live conns, snapshotted whole and
     rebuilt only when [register_conn] or [kill_conn] changes the row *)
  type row = {
    version : int;  (* [ep.row_version] when snapshotted *)
    rconns : conn array;
    fds : Unix.file_descr array;  (* [rconns]' descriptors, same order *)
  }

  (* the wake pipe of one blocked receiver, polled next to the conns.
     One per waiter, not one per endpoint: a waiter that drained a
     shared pipe could leave another asleep on a stale row. *)
  type waker = {
    wr : Unix.file_descr;
    ww : Unix.file_descr;
    mutable wrow : row;  (* the row [wfds] was built from *)
    mutable wfds : Unix.file_descr array;  (* [wr], then [wrow.fds] *)
  }

  type ep = {
    lfd : Unix.file_descr;
    inbox : (bytes * int * int) Queue.t;
    ilock : Mutex.t;  (* inbox, wakers, [shut] *)
    (* receivers blocked in [poll]: a queued frame, a row change and
       shutdown write to each one's pipe *)
    mutable waiting : waker list;
    mutable spare : waker list;  (* pipes of receivers that woke *)
    mutable shut : bool;  (* no receiver blocks any more *)
    row_version : int Atomic.t;
    row : row Atomic.t;
  }

  type t = {
    n : int;
    loopback : bool;
    eps : ep option array;  (* hosted endpoints only *)
    conns : conn option array array;  (* conns.(owner).(peer) *)
    clock : Mutex.t;  (* conn table, pendings, closed flag *)
    metrics : Metrics.t;
    pool : Msgbuf.Pool.buffers;
    (* loopback: physical frames written but not yet queued on the
       destination inbox, so [pending_anywhere] never reports quiet
       while a reply sits in a kernel socket buffer *)
    inflight : int Atomic.t;
    (* conns whose cork may hold bytes: a stack of [ncorked] entries
       under [dlock], a leaf lock (taken under a [wlock], never held
       while taking another).  A poller reads [ncorked] without the lock
       to skip an empty stack. *)
    dlock : Mutex.t;
    mutable corked : conn array;
    ncorked : int Atomic.t;
    writes : int Atomic.t;  (* write(2) calls that carried frame bytes *)
    mutable fault : (src:int -> dest:int -> bytes -> bytes list) option;
    (* the seeded chaos injector; every outbound frame passes through
       it, and its connection actions are applied by [chaos_drain] *)
    mutable chaos : Chaos.t option;
    (* incarnation offset for frames this process stamps: a server
       killed and restarted by an operator announces its new life by
       restarting with a higher epoch, so peers fence its ghosts and
       reset their dedup memory (process mode; chaos restarts manage
       epochs themselves) *)
    mutable base_epoch : int;
    mutable peer_hooks :
      (self:int -> peer:int -> Transport.peer_event -> unit) list;
    mutable process_hooks : (Transport.process_event -> unit) list;
    health : Transport.peer_health array array;
    (* where to redial each machine when its link dies; None = unknown
       (reconnection then waits for the peer to redial us) *)
    peer_addr : (string * int) option array;
    (* per-directed-link connection generation: bumped every time a
       fresh conn is registered, so tests and diagnostics can observe
       that a sever was followed by a reconnect *)
    gens : int array array;
    reconnecting : bool array array;  (* at most one reconnector/link *)
    stop : bool Atomic.t;
    mutable loop : Thread.t option;
    wake_r : Unix.file_descr;
    wake_w : Unix.file_descr;
    mutable pendings : pending_conn list;
    mutable closed : bool;
  }

  let size t = t.n
  let metrics t = t.metrics
  let pool t = t.pool
  let is_reliable _ = false

  let charge t n = Metrics.add t.metrics Bytes_copied n

  let check t who =
    if who < 0 || who >= t.n then
      invalid_arg (Printf.sprintf "Sock: bad machine id %d" who)

  let is_hosted t m =
    check t m;
    t.eps.(m) <> None

  let hosted t who =
    check t who;
    match t.eps.(who) with
    | Some ep -> ep
    | None ->
        invalid_arg
          (Printf.sprintf "Sock: machine %d is not hosted in this process" who)

  (* ---------------------------------------------------------------- *)
  (* wire helpers                                                      *)
  (* ---------------------------------------------------------------- *)

  let put_len b off v =
    Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (v land 0xff))

  let get_len b off =
    (Char.code (Bytes.get b off) lsl 24)
    lor (Char.code (Bytes.get b (off + 1)) lsl 16)
    lor (Char.code (Bytes.get b (off + 2)) lsl 8)
    lor Char.code (Bytes.get b (off + 3))

  (* blocking descriptors only: the hello on a fresh dial *)
  let rec write_all fd b off len =
    if len > 0 then
      match Unix.write fd b off len with
      | k -> write_all fd b (off + k) (len - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

  let wake_byte = Bytes.make 1 '!'
  let sink = Bytes.create 64  (* drained wake bytes; never read *)

  (* a full pipe is already readable, so its EAGAIN is ignored *)
  let poke fd =
    try ignore (Unix.single_write fd wake_byte 0 1 : int)
    with Unix.Unix_error _ -> ()

  (* the event loop's pipe: shutdown only *)
  let wake t = poke t.wake_w

  (* wake [ep]'s blocked receivers.  Called under [ep.ilock]: a waker
     leaves [waiting] under it, so no pipe is written after its owner
     drained it. *)
  let signal (ep : ep) = List.iter (fun w -> poke w.ww) ep.waiting

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  (* [owner]'s conn row changed: receivers re-snapshot their poll set,
     and one blocked in [poll] wakes to do it *)
  let row_changed t owner =
    match t.eps.(owner) with
    | None -> ()
    | Some ep ->
        Atomic.incr ep.row_version;
        Mutex.lock ep.ilock;
        signal ep;
        Mutex.unlock ep.ilock

  (* ---------------------------------------------------------------- *)
  (* connection lifecycle: kill, register, reconnect                   *)
  (* ---------------------------------------------------------------- *)

  let fire_peer t ~self ~peer ev =
    List.iter (fun f -> f ~self ~peer ev) t.peer_hooks

  let fire_process t ev = List.iter (fun f -> f ev) t.process_hooks

  (* remove up to [k] units from [c.cinflight] and as many from
     [t.inflight]; fewer when [kill_conn] already reclaimed the share *)
  let take_back t c k =
    let rec go () =
      let v = Atomic.get c.cinflight in
      let d = min v k in
      if d <= 0 then ()
      else if Atomic.compare_and_set c.cinflight v (v - d) then
        ignore (Atomic.fetch_and_add t.inflight (-d) : int)
      else go ()
    in
    go ()

  (* [c.wlock] held: forget [c]'s cork and take back its charges *)
  let drop_cork t c =
    (match c.wrc with Some rc -> take_back t rc c.wframes | None -> ());
    c.wlen <- 0;
    c.wframes <- 0;
    c.wrc <- None

  (* close a connection and reclaim its in-flight share.  The fd is
     closed under [c.rlock] — [locked] says the caller (a reader that
     hit EOF or garbage) already holds it — so no receiver is reading
     it; a receiver still polling it is woken by [row_changed] and
     drops it from its poll set.  [fire:false] suppresses the health
     transition and the Down event — replacing a duplicate connect with
     a fresher one is not a peer death.  Returns whether the conn was
     alive (the caller decides about reconnection). *)
  let kill_conn ?(fire = true) ?(locked = false) t c =
    if not locked then Mutex.lock c.rlock;
    let was_alive = c.alive in
    if was_alive then begin
      c.alive <- false;
      close_quietly c.fd
    end;
    if not locked then Mutex.unlock c.rlock;
    if was_alive then begin
      (* frames buffered on this link die with it, charges and all.
         When another call holds [wlock] (perhaps this thread's own
         send, reading to make room), its write fails on the closed fd
         or, the cork being on [t.corked], the next flush drops it. *)
      if Mutex.try_lock c.wlock then begin
        drop_cork t c;
        Mutex.unlock c.wlock
      end;
      (* frames written to this link but never parsed out are gone;
         return them so quiescence fails fast instead of spinning *)
      let residue = Atomic.exchange c.cinflight 0 in
      if residue > 0 then
        ignore (Atomic.fetch_and_add t.inflight (-residue) : int);
      row_changed t c.owner;
      if fire then begin
        t.health.(c.owner).(c.peer) <- Transport.Down;
        fire_peer t ~self:c.owner ~peer:c.peer Transport.Peer_confirmed_down
      end
    end;
    was_alive

  (* install [c] as the live conn of its (owner, peer) link, replacing —
     and silently closing — any previous conn (a duplicate connect from
     the same peer id: the newest connection wins, matching what the
     reconnecting initiator believes).  Bumps the link generation and
     wakes the owner's receivers to poll the new fd; a fresh conn
     starts with an empty reassembly buffer, so a frame half-written
     when the old conn died is discarded at the length-prefix boundary
     by construction. *)
  let register_conn t c =
    Mutex.lock t.clock;
    let prev = t.conns.(c.owner).(c.peer) in
    t.conns.(c.owner).(c.peer) <- Some c;
    t.gens.(c.owner).(c.peer) <- t.gens.(c.owner).(c.peer) + 1;
    let was = t.health.(c.owner).(c.peer) in
    t.health.(c.owner).(c.peer) <- Transport.Alive;
    Mutex.unlock t.clock;
    (match prev with
    | Some old when old.alive -> ignore (kill_conn ~fire:false t old : bool)
    | _ -> ());
    row_changed t c.owner;
    if was <> Transport.Alive then
      fire_peer t ~self:c.owner ~peer:c.peer Transport.Peer_recovered

  (* the fd turns non-blocking: several receivers may find it readable
     in one poll, and the one that takes [rlock] second must get EAGAIN,
     not sleep in [read] *)
  let new_conn ~fd ~owner ~peer =
    Unix.set_nonblock fd;
    let rslots =
      Array.init read_slots (fun i ->
          {
            rb = (if i = 0 then Bytes.create chunk else Bytes.empty);
            held = Atomic.make 0;
          })
    in
    {
      fd;
      owner;
      peer;
      wlock = Mutex.create ();
      rlock = Mutex.create ();
      alive = true;
      rslots;
      rcur = rslots.(0);
      rpos = 0;
      rlen = 0;
      rblock = Mutex.create ();
      cinflight = Atomic.make 0;
      wbuf = Bytes.empty;
      wlen = 0;
      wframes = 0;
      wrc = None;
      hdr = Bytes.create 4;
      listed = false;
    }

  (* one TCP connect attempt plus the 4-byte hello; None if the peer
     isn't reachable right now *)
  let dial ~owner host port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let hello = Bytes.create 4 in
      put_len hello 0 owner;
      write_all fd hello 0 4;
      Some fd
    with Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

  let link_alive t ~owner ~peer =
    Mutex.lock t.clock;
    let alive =
      match t.conns.(owner).(peer) with Some c -> c.alive | None -> false
    in
    Mutex.unlock t.clock;
    alive

  (* jitter factor in [0.5, 1.0), hashed from the link and the attempt *)
  let jitter ~owner ~peer ~attempt =
    let h =
      (owner * 73856093) lxor (peer * 19349663) lxor (attempt * 83492791)
    in
    0.5 +. (float_of_int (h land 0x3ff) /. 2048.0)

  (* capped exponential backoff until the link re-forms, the transport
     closes, or the mesh timeout passes *)
  let reconnect_loop t ~owner ~peer =
    let deadline = Clock.deadline_after mesh_timeout in
    let rec go attempt =
      if
        (not (Atomic.get t.stop))
        && Clock.now_us () <= deadline
        && not (link_alive t ~owner ~peer)
      then begin
        let delay =
          min backoff_cap (backoff_base *. (2.0 ** float_of_int attempt))
          *. jitter ~owner ~peer ~attempt
        in
        Unix.sleepf delay;
        if (not (Atomic.get t.stop)) && not (link_alive t ~owner ~peer) then
          match t.peer_addr.(peer) with
          | None -> ()
          | Some (host, port) -> (
              match dial ~owner host port with
              | Some fd -> register_conn t (new_conn ~fd ~owner ~peer)
              | None -> go (attempt + 1))
      end
    in
    go 0;
    Mutex.lock t.clock;
    t.reconnecting.(owner).(peer) <- false;
    Mutex.unlock t.clock

  (* the side that originally initiated (higher id) re-initiates; the
     accepting side's conn re-forms when the initiator's fresh connect
     is promoted.  At most one reconnector per directed link. *)
  let maybe_reconnect t ~owner ~peer =
    if owner > peer && t.peer_addr.(peer) <> None then begin
      Mutex.lock t.clock;
      let spawn =
        (not t.closed)
        && (not (Atomic.get t.stop))
        && not t.reconnecting.(owner).(peer)
      in
      if spawn then t.reconnecting.(owner).(peer) <- true;
      Mutex.unlock t.clock;
      if spawn then
        ignore
          (Thread.create (fun () -> reconnect_loop t ~owner ~peer) ()
            : Thread.t)
    end

  let mark_dead ?locked t c =
    if kill_conn ?locked t c then maybe_reconnect t ~owner:c.owner ~peer:c.peer

  (* ---------------------------------------------------------------- *)
  (* delivery into an endpoint inbox                                   *)
  (* ---------------------------------------------------------------- *)

  (* queue the frame at [b.(off..off+len)] *)
  let deliver t ~dest b off len =
    let ep = hosted t dest in
    Mutex.lock ep.ilock;
    Queue.push (b, off, len) ep.inbox;
    signal ep;
    Mutex.unlock ep.ilock

  (* ---------------------------------------------------------------- *)
  (* reading a conn: the receiver's side of the stream                 *)
  (* ---------------------------------------------------------------- *)

  (* hand up every whole frame in the unparsed bytes, in place: each is
     a slice of the read buffer, counted in [held] before it is queued
     so its release can never find the count short *)
  let parse_frames t c =
    let b = c.rcur.rb in
    let stop = ref false in
    while (not !stop) && c.rlen - c.rpos >= 4 do
      let len = get_len b c.rpos in
      if len < 0 || len > max_frame then begin
        (* garbled stream: there is no resynchronizing a TCP framing
           error, kill the link *)
        mark_dead ~locked:true t c;
        stop := true
      end
      else if c.rlen - c.rpos - 4 < len then stop := true
      else begin
        Atomic.incr c.rcur.held;
        deliver t ~dest:c.owner b (c.rpos + 4) len;
        if t.loopback then take_back t c 1;
        c.rpos <- c.rpos + 4 + len
      end
    done

  (* a spare slot for [need] bytes: one whose frames are all released
     and that holds [need] bytes, else one released but too small, else
     -1.  A top-level loop, so the search builds no closure. *)
  let rec spare_slot c need i best =
    if i = Array.length c.rslots then best
    else
      let s = c.rslots.(i) in
      if s == c.rcur || Atomic.get s.held > 0 then
        spare_slot c need (i + 1) best
      else if Bytes.length s.rb >= need then i
      else spare_slot c need (i + 1) (if best < 0 then i else best)

  let rec index_of slots s i =
    if slots.(i) == s then i else index_of slots s (i + 1)

  (* [c.rcur] is full: the unparsed tail moves to a spare slot, which
     becomes the one read into.  A released spare large enough is
     reused as it is; a smaller one gets fresh bytes.  With every spare
     still holding frames, the slot after [c.rcur] is given up, so they
     go in turn: its frames stay intact with their holders, and their
     releases, no longer finding it, are ignored.  The fresh buffer is
     [chunk] bytes, or twice the tail of a frame that needs more, so a
     receiver that never releases pays about one frame's bytes per
     frame. *)
  let relocate c =
    let tail = c.rlen - c.rpos in
    let need =
      if tail < 4 then chunk
      else max chunk (min (4 + get_len c.rcur.rb c.rpos) (2 * tail))
    in
    let i = spare_slot c need 0 (-1) in
    let i =
      if i >= 0 then i else (index_of c.rslots c.rcur 0 + 1) mod read_slots
    in
    let s = c.rslots.(i) in
    if Bytes.length s.rb < need || Atomic.get s.held > 0 then begin
      Mutex.lock c.rblock;
      s.rb <- Bytes.create need;
      Atomic.set s.held 0;
      Mutex.unlock c.rblock
    end;
    Bytes.blit c.rcur.rb c.rpos s.rb 0 tail;
    c.rcur <- s;
    c.rpos <- 0;
    c.rlen <- tail

  (* one non-blocking read and the frames it completes; [c.rlock] held.
     Once every frame handed up from the buffer is released, the tail
     moves to its front; otherwise the read goes on into the free space
     after it, and a full buffer relocates. *)
  let read_conn t c =
    if c.rpos > 0 && Atomic.get c.rcur.held = 0 then begin
      Bytes.blit c.rcur.rb c.rpos c.rcur.rb 0 (c.rlen - c.rpos);
      c.rlen <- c.rlen - c.rpos;
      c.rpos <- 0
    end;
    if c.rlen = Bytes.length c.rcur.rb then relocate c;
    let b = c.rcur.rb in
    match Unix.read c.fd b c.rlen (Bytes.length b - c.rlen) with
    | 0 -> mark_dead ~locked:true t c
    | k ->
        c.rlen <- c.rlen + k;
        parse_frames t c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> mark_dead ~locked:true t c

  (* read [c] with [c.rlock] just taken; [alive] is re-checked under
     it, since a conn killed after the poll set was snapshotted has a
     closed (perhaps already reused) fd *)
  let read_locked t c =
    match if c.alive then read_conn t c with
    | () -> Mutex.unlock c.rlock
    | exception e ->
        Mutex.unlock c.rlock;
        raise e

  (* read [c] unless another receiver is already reading it: that one
     delivers whatever is there *)
  let read_if_free t c = if Mutex.try_lock c.rlock then read_locked t c

  (* [self]'s poll set, re-snapshotted when its row version moved on.
     The version is read before the conn table, so a change racing the
     snapshot leaves a stale version behind and the next call rebuilds
     again. *)
  let current_row t (ep : ep) ~self =
    let r = Atomic.get ep.row in
    let version = Atomic.get ep.row_version in
    if r.version = version then r
    else begin
      Mutex.lock t.clock;
      let live =
        Array.fold_right
          (fun c acc ->
            match c with Some c when c.alive -> c :: acc | _ -> acc)
          t.conns.(self) []
      in
      Mutex.unlock t.clock;
      let rconns = Array.of_list live in
      let r = { version; rconns; fds = Array.map (fun c -> c.fd) rconns } in
      Atomic.set ep.row r;
      r
    end

  (* ---------------------------------------------------------------- *)
  (* releases: a frame handed up from a read buffer is done            *)
  (* ---------------------------------------------------------------- *)

  let rec slot_with slots frame i =
    if i = Array.length slots then -1
    else if slots.(i).rb == frame then i
    else slot_with slots frame (i + 1)

  (* whether [c] owns [frame]; if so, one slice of it is released.  A
     slot's bytes only ever change to fresh ones, so a lookup that
     misses without the lock would miss under it too. *)
  let release_conn c frame =
    slot_with c.rslots frame 0 >= 0
    && begin
         Mutex.lock c.rblock;
         let i = slot_with c.rslots frame 0 in
         let over = i >= 0 && Atomic.get c.rslots.(i).held <= 0 in
         if i >= 0 && not over then Atomic.decr c.rslots.(i).held;
         Mutex.unlock c.rblock;
         if over then
           invalid_arg "Sock.release: no slice of this buffer is outstanding";
         i >= 0
       end

  let rec release_row row frame i =
    if i < Array.length row then
      match row.(i) with
      | Some c when release_conn c frame -> ()
      | _ -> release_row row frame (i + 1)

  (* [frame] is looked up among [self]'s conns; a self-send's frame, or
     the bytes of a conn since replaced, are no one's *)
  let release t ~self frame =
    check t self;
    if Bytes.length frame > 0 then release_row t.conns.(self) frame 0

  (* the non-blocking drain: one zero-timeout poll over [self]'s conns
     (it neither blocks nor allocates when nothing is ready), then a
     read of each ready conn nobody else is reading *)
  let drain t ep ~self =
    let r = current_row t ep ~self in
    match Poll.readable r.fds ~timeout:0.0 with
    | [] -> ()
    | ready -> List.iter (fun i -> read_if_free t r.rconns.(i)) ready

  (* ---------------------------------------------------------------- *)
  (* send path                                                         *)
  (* ---------------------------------------------------------------- *)

  (* the live conn [src] writes to [dest] on: the table's own option,
     so the lookup allocates nothing *)
  let conn_to t ~src ~dest =
    Mutex.lock t.clock;
    let c = t.conns.(src).(dest) in
    Mutex.unlock t.clock;
    match c with
    | Some c' as live when c'.alive -> live
    | Some _ -> None  (* broken link: frames to it are lost *)
    | None -> invalid_arg (Printf.sprintf "Sock: no link %d -> %d" src dest)

  (* loopback in-flight accounting: a frame [src] sends is parsed out of
     the RECEIVER's end of the stream — [conns.(dest).(src)] — so its
     charge goes there, where [parse_frames]'s take-back and
     [kill_conn]'s residue reclaim will find it *)
  let receiving t ~src ~dest =
    if not t.loopback then None
    else begin
      Mutex.lock t.clock;
      let r = t.conns.(dest).(src) in
      Mutex.unlock t.clock;
      r
    end

  (* the kernel has no room toward [c.peer]: its end is not reading.
     Read what this thread can — the receiving record when it is hosted
     here (a synchronous fabric has no other reader) and the sender's
     own inbound links (two ends writing at each other must not both
     stall with full buffers) — then give the far end a moment.  No
     cork is flushed here: this thread holds [c.wlock]. *)
  let make_room t c =
    (if t.loopback then
       match t.conns.(c.peer).(c.owner) with
       | Some rc -> read_if_free t rc
       | None -> ());
    drain t (hosted t c.owner) ~self:c.owner;
    Unix.sleepf 50e-6

  (* [c.wlock] held; [c.fd] is non-blocking *)
  let rec write_conn t c b off len =
    if len > 0 then
      match Unix.single_write c.fd b off len with
      | k ->
          Atomic.incr t.writes;
          write_conn t c b (off + k) (len - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_conn t c b off len
      | exception
          (Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) as e) ->
          (* a conn killed while we waited has a closed fd: stop *)
          if not c.alive then raise e;
          make_room t c;
          write_conn t c b off len

  (* [c.wlock] held: write the cork out in one write(2).  Its frames
     stay charged in flight until the receiver parses them; on a write
     error the caller drops the cork, charges and all. *)
  let flush_locked t c =
    if c.wlen > 0 then begin
      write_conn t c c.wbuf 0 c.wlen;
      c.wlen <- 0;
      c.wframes <- 0;
      c.wrc <- None
    end

  (* [c.wlock] held: charge one frame written to [c] in flight to the
     receiving record [r], counting it on [c] so a failed write or a
     killed conn can take it back.  A dying receiving record means the
     bytes are already lost: charge nothing, quiescence must not wait on
     them.  A frame for another record than the cork's pending charges
     flushes them first, so they all have one [wrc]. *)
  let charge_frame t c r =
    match r with
    | Some rc when rc.alive ->
        if c.wframes > 0 && c.wrc != r then flush_locked t c;
        Atomic.incr t.inflight;
        Atomic.incr rc.cinflight;
        c.wframes <- c.wframes + 1;
        c.wrc <- r
    | _ -> ()

  (* [c.wlock] held: [c] is on [t.corked], or a flusher that popped it
     is about to take [c.wlock] *)
  let list_corked t c =
    Mutex.lock t.dlock;
    if not c.listed then begin
      c.listed <- true;
      let k = Atomic.get t.ncorked in
      if k = Array.length t.corked then begin
        let grown = Array.make (max 8 (2 * k)) c in
        Array.blit t.corked 0 grown 0 k;
        t.corked <- grown
      end;
      t.corked.(k) <- c;
      Atomic.set t.ncorked (k + 1)
    end;
    Mutex.unlock t.dlock

  (* write [c]'s cork out — or drop it, when [c] died — with no [wlock]
     held by this thread *)
  let flush_conn t c =
    Mutex.lock c.wlock;
    match if c.alive then flush_locked t c else drop_cork t c with
    | () -> Mutex.unlock c.wlock
    | exception Unix.Unix_error _ ->
        drop_cork t c;
        Mutex.unlock c.wlock;
        mark_dead t c
    | exception e ->
        Mutex.unlock c.wlock;
        raise e

  (* flush before poll: every cork of this transport is written out
     before a thread polls its sockets, so no buffered frame waits on a
     reader that is waiting on it *)
  let rec flush_corked t =
    if Atomic.get t.ncorked > 0 then begin
      Mutex.lock t.dlock;
      let k = Atomic.get t.ncorked in
      if k = 0 then Mutex.unlock t.dlock
      else begin
        let c = t.corked.(k - 1) in
        c.listed <- false;
        Atomic.set t.ncorked (k - 1);
        Mutex.unlock t.dlock;
        flush_conn t c;
        flush_corked t
      end
    end

  (* a receiver of [dest] is blocked in [poll]: it flushed before it
     blocked, so a frame buffered since then is the sender's to write *)
  let receiver_blocked t dest =
    match t.eps.(dest) with
    | None -> false
    | Some ep ->
        Mutex.lock ep.ilock;
        let blocked = match ep.waiting with [] -> false | _ -> true in
        Mutex.unlock ep.ilock;
        blocked

  (* [c.wlock] held: append one frame to [c]'s cork *)
  let cork t c r b off len =
    if c.wlen + 4 + len > chunk then flush_locked t c;
    charge_frame t c r;
    if Bytes.length c.wbuf = 0 then c.wbuf <- Bytes.create chunk;
    put_len c.wbuf c.wlen len;
    Bytes.blit b off c.wbuf (c.wlen + 4) len;
    charge t len;
    if c.wlen = 0 then list_corked t c;
    c.wlen <- c.wlen + 4 + len

  (* [c.wlock] held: the cork, then one frame straight from [b]; with
     [gapped], [b] has 4 writable bytes before [off] for the prefix *)
  let write_through t c r b off len ~gapped =
    flush_locked t c;
    charge_frame t c r;
    if gapped then begin
      put_len b (off - 4) len;
      write_conn t c b (off - 4) (len + 4)
    end
    else begin
      put_len c.hdr 0 len;
      write_conn t c c.hdr 0 4;
      write_conn t c b off len
    end;
    c.wframes <- 0;
    c.wrc <- None

  (* one frame of [len] bytes at [b.(off)] from [src] to [dest] over
     [c].  A frame for an endpoint hosted here joins the cork when it
     fits; one for another process (no thread here can flush for it) or
     one that cannot fit leaves at once, behind the cork. *)
  let ship_conn t ~src ~dest c b off len ~gapped =
    let r = receiving t ~src ~dest in
    Mutex.lock c.wlock;
    match
      if not c.alive then false
      else if is_hosted t dest && 4 + len <= chunk then begin
        cork t c r b off len;
        true
      end
      else begin
        write_through t c r b off len ~gapped;
        false
      end
    with
    | corked ->
        Mutex.unlock c.wlock;
        if corked && receiver_blocked t dest then flush_conn t c
    | exception Unix.Unix_error _ ->
        drop_cork t c;
        Mutex.unlock c.wlock;
        mark_dead t c
    | exception e ->
        Mutex.unlock c.wlock;
        raise e

  (* one physical frame, already materialized *)
  let ship_frame t ~src ~dest frame =
    let len = Bytes.length frame in
    if len > max_frame then invalid_arg "Sock: frame exceeds the 64 MiB bound";
    if src = dest then deliver t ~dest frame 0 len
    else
      match conn_to t ~src ~dest with
      | None -> ()
      | Some c -> ship_conn t ~src ~dest c frame 0 len ~gapped:false

  (* apply a chaos Sever: kill both hosted conn records of the pair
     (each is one end of the same TCP stream, so killing either would
     eventually EOF the other — killing both is merely prompt) *)
  let sever_pair t a b =
    List.iter
      (fun (x, y) ->
        if x >= 0 && x < t.n && y >= 0 && y < t.n then
          match t.conns.(x).(y) with
          | Some c when c.alive -> mark_dead t c
          | _ -> ())
      [ (a, b); (b, a) ]

  (* a chaos kill/restart of machine [m]: its queued inbox dies with
     the process, and every TCP connection it had is severed
     (reconnection re-forms them; while the machine is down the
     injector swallows its traffic) *)
  let apply_transition t = function
    | Fault_sim.Crashed { machine; durability } ->
        Metrics.add t.metrics Crashes 1;
        (match t.eps.(machine) with
        | Some ep ->
            Mutex.lock ep.ilock;
            let dropped = List.of_seq (Queue.to_seq ep.inbox) in
            Queue.clear ep.inbox;
            Mutex.unlock ep.ilock;
            List.iter (fun (b, _, _) -> release t ~self:machine b) dropped
        | None -> ());
        for other = 0 to t.n - 1 do
          if other <> machine then sever_pair t machine other
        done;
        fire_process t (Transport.Proc_crashed { machine; durability })
    | Fault_sim.Restarted { machine; epoch; durability } ->
        Metrics.add t.metrics Restarts 1;
        fire_process t (Transport.Proc_restarted { machine; epoch; durability })

  (* drain the injector's side effects after its clock advanced:
     released stall frames ship directly (they already passed the fault
     stage), fired connection actions are applied, and crash/restart
     transitions wipe and notify like the sim backend does *)
  let chaos_drain t c =
    List.iter
      (fun (src, dest, f) -> ship_frame t ~src ~dest f)
      (Chaos.take_released c);
    List.iter
      (function
        | Chaos.Sever { a; b } -> sever_pair t a b
        | Chaos.Stall _ -> ())
      (Chaos.take_actions c);
    List.iter (fun tr -> apply_transition t tr) (Chaos.take_transitions c)

  let ship_hooked t ~src ~dest frame =
    match (t.fault, t.chaos) with
    | None, None -> ship_frame t ~src ~dest frame  (* allocates nothing *)
    | fault, chaos -> (
        let frames =
          match fault with None -> [ frame ] | Some hook -> hook ~src ~dest frame
        in
        match chaos with
        | None -> List.iter (fun f -> ship_frame t ~src ~dest f) frames
        | Some c ->
            (* a frame the injector drops was never written: TCP cannot
               resurrect it — recovery belongs to the Reliable layer above *)
            List.iter
              (fun f ->
                List.iter
                  (fun f' -> ship_frame t ~src ~dest f')
                  (Chaos.on_send c ~src ~dest f))
              frames;
            chaos_drain t c)

  (* the no-materialization path: the payload sits in [w] at
     [payload_off] with >= 4 reserved bytes before it.  Buffered, it is
     copied into the cork; written through, the length prefix is
     patched into that gap and prefix+payload leave in one contiguous
     write straight from the writer's storage. *)
  let ship_writer t ~src ~dest w ~payload_off =
    let payload_len = Msgbuf.length w - payload_off in
    if payload_len > max_frame then
      invalid_arg "Sock: frame exceeds the 64 MiB bound";
    if src = dest || t.fault <> None || t.chaos <> None then begin
      (* local delivery, the fault hook and the chaos injector all
         need a real frame *)
      let frame = Msgbuf.sub w ~off:payload_off ~len:payload_len in
      charge t payload_len;
      ship_hooked t ~src ~dest frame
    end
    else
      match conn_to t ~src ~dest with
      | None -> ()
      | Some c ->
          ship_conn t ~src ~dest c (Msgbuf.unsafe_storage w) payload_off
            payload_len ~gapped:true

  let send t ~src ~dest msg =
    check t src;
    check t dest;
    Transport.account_send t.metrics (Bytes.length msg);
    ship_hooked t ~src ~dest msg

  (* physical transmit: rides the fault hook and the chaos injector
     like a send, but charges nothing — a stacked layer's own frames *)
  let send_raw t ~src ~dest frame =
    check t src;
    check t dest;
    ship_hooked t ~src ~dest frame

  let send_writer t ~src ~dest w ~payload_off =
    check t src;
    check t dest;
    Transport.account_send t.metrics (Msgbuf.length w - payload_off);
    ship_writer t ~src ~dest w ~payload_off

  let send_raw_writer t ~src ~dest w ~payload_off =
    check t src;
    check t dest;
    ship_writer t ~src ~dest w ~payload_off

  include Transport.Unbuffered (struct
    type nonrec t = t

    let send = send
  end)

  (* ---------------------------------------------------------------- *)
  (* receive path: the receiving thread reads its own endpoint's conns *)
  (* ---------------------------------------------------------------- *)

  let pop (ep : ep) =
    Mutex.lock ep.ilock;
    let m = if Queue.is_empty ep.inbox then None else Some (Queue.pop ep.inbox) in
    Mutex.unlock ep.ilock;
    m

  let shut_down () = failwith "Sock: transport shut down"

  let try_recv_slice t ~self =
    let ep = hosted t self in
    match pop ep with
    | Some _ as m -> m
    | None ->
        flush_corked t;
        drain t ep ~self;
        pop ep

  (* [ep.ilock] held: a pipe for a receiver about to block *)
  let enlist (ep : ep) =
    let w =
      match ep.spare with
      | w :: rest ->
          ep.spare <- rest;
          w
      | [] ->
          let wr, ww = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock wr;
          Unix.set_nonblock ww;
          let wrow = { version = -1; rconns = [||]; fds = [||] } in
          { wr; ww; wrow; wfds = [| wr |] }
    in
    ep.waiting <- w :: ep.waiting;
    w

  (* the receiver is awake: nothing writes [w] once it leaves
     [waiting], so one drain empties it for its next use *)
  let discharge (ep : ep) w =
    Mutex.lock ep.ilock;
    ep.waiting <- List.filter (fun w' -> w' != w) ep.waiting;
    (try ignore (Unix.read w.wr sink 0 (Bytes.length sink) : int)
     with Unix.Unix_error _ -> ());
    if ep.shut then begin
      close_quietly w.wr;
      close_quietly w.ww
    end
    else ep.spare <- w :: ep.spare;
    Mutex.unlock ep.ilock

  (* block in one [poll] over a wake pipe and [self]'s conns until one
     is readable or [timeout] seconds pass (negative: no limit), then
     read the ready conns.  The inbox check and the enlisting are one
     [ilock] section, and the row is snapshotted after it: a frame
     queued, or a conn registered, before the section is seen by this
     call; one after it writes the pipe.  The corks are flushed after
     the section too: a frame buffered before a sender checks [waiting]
     under [ilock] is either flushed here or by that sender. *)
  let await_ready t (ep : ep) ~self ~timeout =
    Mutex.lock ep.ilock;
    let w =
      if Queue.is_empty ep.inbox && not ep.shut then Some (enlist ep) else None
    in
    Mutex.unlock ep.ilock;
    match w with
    | None -> ()
    | Some w ->
        flush_corked t;
        let r = current_row t ep ~self in
        if w.wrow != r then begin
          w.wrow <- r;
          w.wfds <- Array.append [| w.wr |] r.fds
        end;
        let ready = Poll.readable w.wfds ~timeout in
        (* leave before reading: the frames read below need no pipe
           byte to wake this receiver *)
        discharge ep w;
        List.iter
          (fun i ->
            if i > 0 then begin
              (* poll said readable: wait out a concurrent reader, the
                 fd is non-blocking so the read cannot stall *)
              let c = r.rconns.(i - 1) in
              Mutex.lock c.rlock;
              read_locked t c
            end)
          ready

  let recv_blocking_slice t ~self =
    let ep = hosted t self in
    match try_recv_slice t ~self with
    | Some m -> m
    | None ->
        let rec go () =
          if t.closed then shut_down ();
          await_ready t ep ~self ~timeout:(-1.0);
          match pop ep with Some m -> m | None -> go ()
        in
        go ()

  let recv_deadline_slice t ~self ~seconds =
    let ep = hosted t self in
    match try_recv_slice t ~self with
    | Some _ as m -> m
    | None ->
        let deadline = Clock.deadline_after seconds in
        let rec go () =
          let remain = Clock.remaining deadline in
          if remain <= 0.0 then None
          else if t.closed then shut_down ()
          else begin
            await_ready t ep ~self ~timeout:remain;
            (* bind every pop exactly once: a message dequeued here
               must be returned, never compared away *)
            match pop ep with Some _ as m -> m | None -> go ()
          end
        in
        go ()

  (* ---------------------------------------------------------------- *)
  (* the event loop: accept and read hellos; conns are the receivers'  *)
  (* ---------------------------------------------------------------- *)

  let promote t p peer = register_conn t (new_conn ~fd:p.pfd ~owner:p.powner ~peer)

  let read_pending t p =
    match Unix.read p.pfd p.hello p.hlen (4 - p.hlen) with
    | 0 ->
        (* connected, then died before completing the hello *)
        Mutex.lock t.clock;
        t.pendings <- List.filter (fun q -> q != p) t.pendings;
        Mutex.unlock t.clock;
        (try Unix.close p.pfd with Unix.Unix_error _ -> ())
    | k ->
        p.hlen <- p.hlen + k;
        if p.hlen = 4 then begin
          let peer = get_len p.hello 0 in
          Mutex.lock t.clock;
          t.pendings <- List.filter (fun q -> q != p) t.pendings;
          Mutex.unlock t.clock;
          (* a malformed hello (peer id out of range) is not a protocol
             we can answer: close and move on, the loop survives *)
          if peer >= 0 && peer < t.n then promote t p peer
          else try Unix.close p.pfd with Unix.Unix_error _ -> ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> (
        Mutex.lock t.clock;
        t.pendings <- List.filter (fun q -> q != p) t.pendings;
        Mutex.unlock t.clock;
        try Unix.close p.pfd with Unix.Unix_error _ -> ())

  let accept_on t owner lfd =
    match Unix.accept lfd with
    | fd, _ ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Mutex.lock t.clock;
        t.pendings <-
          { pfd = fd; powner = owner; hello = Bytes.create 4; hlen = 0 }
          :: t.pendings;
        Mutex.unlock t.clock
    | exception Unix.Unix_error _ -> ()

  type fd_kind =
    | K_wake
    | K_listener of int * Unix.file_descr
    | K_pending of pending_conn

  (* multiplex with poll(2), not select: a select fd_set caps the whole
     process at FD_SETSIZE descriptors (1024 on Linux), which bounded
     the loopback mesh at 26 machines; poll's only ceiling is the
     RLIMIT_NOFILE budget (see [max_loopback_machines]) *)
  let loop_body t =
    while not (Atomic.get t.stop) do
      (* snapshot the fd set under the lock; only this thread adds
         pendings, and shutdown wakes it through the pipe *)
      Mutex.lock t.clock;
      let entries = ref [] in
      Array.iteri
        (fun i ep ->
          match ep with
          | Some e -> entries := (e.lfd, K_listener (i, e.lfd)) :: !entries
          | None -> ())
        t.eps;
      List.iter (fun p -> entries := (p.pfd, K_pending p) :: !entries)
        t.pendings;
      Mutex.unlock t.clock;
      let arr = Array.of_list ((t.wake_r, K_wake) :: !entries) in
      let fds = Array.map fst arr in
      List.iter
        (fun i ->
          match snd arr.(i) with
          | K_wake -> (
              let b = Bytes.create 16 in
              try ignore (Unix.read t.wake_r b 0 16) with _ -> ())
          | K_listener (owner, lfd) -> accept_on t owner lfd
          | K_pending p -> read_pending t p)
        (Poll.readable fds ~timeout:0.5)
    done

  (* ---------------------------------------------------------------- *)
  (* the idle clock, peer health and the control plane                *)
  (* ---------------------------------------------------------------- *)

  let idle t ~self =
    check t self;
    flush_corked t;
    (* the caller is quiescing on us in a spin, and its receives'
       zero-timeout polls keep the runtime lock; on one domain that
       spin would starve the reconnector threads and the event loop's
       accepts forever — enter a real blocking section so they can take
       it (a yield is not enough: it only reschedules, and the starved
       threads sit in timed waits, not on the run queue) *)
    Unix.sleepf 50e-6;
    (* TCP is the retransmit machinery; the injector's clock may still
       owe released frames or connection actions *)
    (match t.chaos with Some c -> chaos_drain t c | None -> ());
    Transport.Raw_transport

  let pending_anywhere t =
    (not t.loopback)  (* remote state is invisible: stay conservative *)
    || Atomic.get t.inflight > 0
    || Array.exists
         (function
           | Some ep ->
               Mutex.lock ep.ilock;
               let any = not (Queue.is_empty ep.inbox) in
               Mutex.unlock ep.ilock;
               any
           | None -> false)
         t.eps
  (* frames the chaos injector holds or parks are deliberately NOT
     pending: they only move when the frame clock advances, i.e. when
     the caller keeps driving [idle]/sends rather than waiting — the
     same contract the Sim backend has for [Fault_sim] holds *)

  let peer_health t ~self ~peer =
    check t self;
    check t peer;
    t.health.(self).(peer)

  let self_epoch t m =
    check t m;
    t.base_epoch
    + (match t.chaos with Some c -> Chaos.epoch_of c m | None -> 0)

  let on_peer_event t f = t.peer_hooks <- t.peer_hooks @ [ f ]
  let on_process_event t f = t.process_hooks <- t.process_hooks @ [ f ]

  (* a bare fault schedule arriving through the generic Transport
     surface becomes a chaos injector with an empty connection plan:
     the frame-level semantics are exactly the Sim backend's *)
  let set_faults t fs = t.chaos <- Some (Chaos.of_fault_sim ~n:t.n fs)
  let faults t = Option.map Chaos.fault_sim t.chaos
  let set_fault_hook t hook = t.fault <- Some hook
  let clear_fault_hook t = t.fault <- None

  let shutdown t =
    Mutex.lock t.clock;
    let was_closed = t.closed in
    t.closed <- true;
    Mutex.unlock t.clock;
    if not was_closed then begin
      Atomic.set t.stop true;
      wake t;
      Option.iter Thread.join t.loop;
      t.loop <- None;
      (* kill outside [t.clock]: a reader holding an [rlock] may be
         waiting for [t.clock] to spawn a reconnector *)
      Mutex.lock t.clock;
      let conns = Array.map Array.copy t.conns in
      Mutex.unlock t.clock;
      Array.iter
        (Array.iter (function
          | Some c -> ignore (kill_conn ~fire:false t c : bool)
          | None -> ()))
        conns;
      Mutex.lock t.clock;
      List.iter (fun p -> close_quietly p.pfd) t.pendings;
      t.pendings <- [];
      Mutex.unlock t.clock;
      Array.iter
        (function
          | Some ep ->
              close_quietly ep.lfd;
              (* a receiver in [poll] wakes, sees [closed] and raises,
                 closing its pipe on the way out *)
              Mutex.lock ep.ilock;
              ep.shut <- true;
              signal ep;
              List.iter
                (fun w ->
                  close_quietly w.wr;
                  close_quietly w.ww)
                ep.spare;
              ep.spare <- [];
              Mutex.unlock ep.ilock
          | None -> ())
        t.eps;
      close_quietly t.wake_r;
      close_quietly t.wake_w
    end
end

include M

let pack (t : M.t) : Transport.t = Transport.pack (module M) t

(* test/diagnostic surface on the unpacked handle *)
let set_chaos (t : M.t) c = t.M.chaos <- Some c
let chaos (t : M.t) = t.M.chaos

let link_generation (t : M.t) ~owner ~peer =
  M.check t owner;
  M.check t peer;
  Mutex.lock t.M.clock;
  let g = t.M.gens.(owner).(peer) in
  Mutex.unlock t.M.clock;
  g

let writes (t : M.t) = Atomic.get t.M.writes

let sever (t : M.t) ~a ~b =
  M.check t a;
  M.check t b;
  M.sever_pair t a b

let listen_port (t : M.t) machine =
  let ep = M.hosted t machine in
  match Unix.getsockname ep.M.lfd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Sock.listen_port: endpoint is not on a TCP listener"

(* ------------------------------------------------------------------ *)
(* construction                                                        *)
(* ------------------------------------------------------------------ *)

let listen_on host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (fd, actual_port)

let make ~n ~loopback ~hosted_ids ~listeners ~peer_addr metrics =
  (* a peer that dies between our poll and our write turns the write
     into a SIGPIPE, whose default action kills the whole process —
     with it ignored the write returns EPIPE and the ordinary
     [mark_dead]/reconnect path takes over *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let eps = Array.make n None in
  List.iter2
    (fun id lfd ->
      eps.(id) <-
        Some
          {
            M.lfd;
            inbox = Queue.create ();
            ilock = Mutex.create ();
            waiting = [];
            spare = [];
            shut = false;
            row_version = Atomic.make 0;
            row = Atomic.make { M.version = 0; rconns = [||]; fds = [||] };
          })
    hosted_ids listeners;
  let wake_r, wake_w = Unix.pipe () in
  {
    M.n;
    loopback;
    eps;
    conns = Array.init n (fun _ -> Array.make n None);
    clock = Mutex.create ();
    metrics;
    pool = Msgbuf.Pool.create ~metrics;
    inflight = Atomic.make 0;
    dlock = Mutex.create ();
    corked = [||];
    ncorked = Atomic.make 0;
    writes = Atomic.make 0;
    fault = None;
    chaos = None;
    base_epoch = 0;
    peer_hooks = [];
    process_hooks = [];
    health = Array.init n (fun _ -> Array.make n Transport.Alive);
    peer_addr;
    gens = Array.init n (fun _ -> Array.make n 0);
    reconnecting = Array.init n (fun _ -> Array.make n false);
    stop = Atomic.make false;
    loop = None;
    wake_r;
    wake_w;
    pendings = [];
    closed = false;
  }

(* higher id initiates: connect [owner] to [peer]'s address, retrying
   while the peer process boots, and announce ourselves with the
   4-byte hello *)
let connect_to t ~owner ~peer host port =
  let deadline = Clock.deadline_after mesh_timeout in
  let rec attempt () =
    match M.dial ~owner host port with
    | Some fd -> fd
    | None when Clock.now_us () < deadline ->
        Unix.sleepf connect_retry_every;
        attempt ()
    | None -> failwith (Printf.sprintf "Sock: cannot reach %s:%d" host port)
  in
  let fd = attempt () in
  M.register_conn t (M.new_conn ~fd ~owner ~peer)

let mesh_complete t hosted_ids =
  List.for_all
    (fun i ->
      Array.for_all (fun j -> j = i || t.M.conns.(i).(j) <> None)
        (Array.init t.M.n Fun.id))
    hosted_ids

let await_mesh t hosted_ids =
  let deadline = Clock.deadline_after mesh_timeout in
  let rec go delay =
    Mutex.lock t.M.clock;
    let ok = mesh_complete t hosted_ids in
    Mutex.unlock t.M.clock;
    if ok then ()
    else if Clock.now_us () >= deadline then begin
      M.shutdown t;
      failwith "Sock: mesh formation timed out (are all peers running?)"
    end
    else begin
      Unix.sleepf delay;
      go (Float.min mesh_poll_cap (2.0 *. delay))
    end
  in
  go mesh_poll_first

(* poll(2) is bounded only by the process RLIMIT_NOFILE budget.  A
   loopback mesh holds the event loop's wake pipe (2), n listeners, a
   wake pipe per blocked receiver (2n with one per endpoint), n(n-1)
   conn fds (both ends of every link are hosted here) and up to
   n(n-1)/2 pending accepts during formation; 64 descriptors of headroom are left for the rest of the
   process, and the answer is capped at 512 machines (the O(n^2) mesh
   stops being sane long before the budget runs out) *)
let max_loopback_machines () =
  let budget = Poll.nofile_limit () - 64 in
  let fds n = 2 + (3 * n) + (n * (n - 1)) + (n * (n - 1) / 2) in
  let rec grow n = if n < 512 && fds (n + 1) <= budget then grow (n + 1) else n in
  grow 1

let create_loopback_t ?chaos ~n metrics =
  if n < 1 then invalid_arg "Sock.create_loopback: need at least one machine";
  let cap = max_loopback_machines () in
  if n > cap then
    invalid_arg
      (Printf.sprintf
         "Sock.create_loopback: a %d-machine mesh needs more descriptors \
          than this process's RLIMIT_NOFILE budget allows (max %d machines)"
         n cap);
  let hosted_ids = List.init n Fun.id in
  let listeners_ports =
    List.map (fun _ -> listen_on "127.0.0.1" 0) hosted_ids
  in
  let ports = Array.of_list (List.map snd listeners_ports) in
  let peer_addr = Array.init n (fun j -> Some ("127.0.0.1", ports.(j))) in
  let t =
    make ~n ~loopback:true ~hosted_ids
      ~listeners:(List.map fst listeners_ports)
      ~peer_addr metrics
  in
  t.M.chaos <- chaos;
  t.M.loop <- Some (Thread.create M.loop_body t);
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      connect_to t ~owner:i ~peer:j "127.0.0.1" ports.(j)
    done
  done;
  await_mesh t hosted_ids;
  t

let create_loopback ?chaos ~n metrics = pack (create_loopback_t ?chaos ~n metrics)

let create_process ?chaos ?(epoch = 0) ?listen ~self ~addrs metrics =
  let n = Array.length addrs in
  if n < 1 then invalid_arg "Sock.create_process: need at least one machine";
  if self < 0 || self >= n then
    invalid_arg (Printf.sprintf "Sock.create_process: bad self id %d" self);
  let bind_host, bind_port =
    match listen with Some hp -> hp | None -> addrs.(self)
  in
  let lfd, _ = listen_on bind_host bind_port in
  let peer_addr = Array.map (fun a -> Some a) addrs in
  let t =
    make ~n ~loopback:false ~hosted_ids:[ self ] ~listeners:[ lfd ] ~peer_addr
      metrics
  in
  t.M.chaos <- chaos;
  t.M.base_epoch <- epoch;
  t.M.loop <- Some (Thread.create M.loop_body t);
  for j = 0 to self - 1 do
    let host, port = addrs.(j) in
    connect_to t ~owner:self ~peer:j host port
  done;
  await_mesh t [ self ];
  pack t
