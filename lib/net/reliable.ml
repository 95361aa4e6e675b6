(* The Reliable envelope layer: the one ARQ stack, stacked over any
   {!Transport.t} — the raw simulated interconnect ([Cluster]) for the
   Sim backend, and [Sock], whose TCP only guarantees delivery while a
   connection lives.  Frames a fault schedule or chaos injector
   swallowed, frames the kernel dropped with a severed connection, and
   whole machine kill/restarts are recovered here: per-link sequence
   numbers and checksums in an {!Envelope}, acks for every data frame,
   duplicate suppression (at-most-once up), capped exponential
   retransmission checked on every {!idle} call, heartbeat-driven
   Alive/Suspect/Down, and epoch fencing of dead incarnations.

   One clock drives every timer.  A Sync fabric counts {!idle} calls
   (one machine drives everyone's timers, so the count is a
   deterministic schedule).  A threaded fabric passes [~now], a
   monotonic microsecond clock: its idle loops spin at whatever speed
   the host allows, and a timer counted in polls would fire after a
   few microseconds and retransmit frames whose acks are merely late.
   Its first retransmission of a frame skips the rto when the fabric
   looks quiet and the frame therefore probably lost (see [idle]).

   All envelope traffic (data, retransmits, acks, heartbeats) leaves
   through the lower transport's [send_raw], so the logical counters
   ([msgs_sent]/[bytes_sent]) are charged once, here, with the
   payload — the same accounting as the raw transport. *)

module Msgbuf = Rmi_wire.Msgbuf
module Metrics = Rmi_stats.Metrics

type params = {
  rto : int; backoff_cap : int; max_attempts : int;
  ping_every : int; suspect_after : int; down_after : int;
}

let default_params =
  { rto = 2; backoff_cap = 32; max_attempts = 12;
    ping_every = 8; suspect_after = 16; down_after = 48 }

(* the microsecond timers.  rto is a polling pool worker's idle-sleep
   quantum, so no idle caller can fire a timer sooner than one sleep
   after the send, and the slice a blocked receiver waits between
   sweeps while a frame awaits its ack; 12 attempts capped at 32 ms
   give a frame ~147 ms before it is abandoned.  The detector pings a
   peer quiet for 8 ms, suspects it after 16 ms and confirms it down
   after 48 ms. *)
let clock_params =
  { rto = 100; backoff_cap = 32_000; max_attempts = 12;
    ping_every = 8_000; suspect_after = 16_000; down_after = 48_000 }

(* a blocked receiver's slice on the microsecond clock while no link
   holds an unacked frame: only the detector's timers can come due, and
   pings go out every 8 ms (clock_params), so a sweep a millisecond keeps
   them within an eighth of their period without waking ten thousand
   times a second *)
let clock_idle_slice = 0.001

(* what [self] believes about [peer], and the highest incarnation seen
   (the fence) *)
type det_cell = {
  mutable last_heard : int;
  mutable last_ping : int;
  mutable health : Transport.peer_health;
  mutable known_epoch : int;
}

(* a sent-but-unacknowledged data frame, waiting on its retransmit
   timer; records are recycled through their link's [spare] stack *)
type pending = {
  mutable frame : bytes;
  mutable attempts : int;
  mutable rto_now : int;
  mutable due : int;  (* clock reading at which the timer expires *)
}

(* [min_due] and [firsts] summarize [unacked] for [idle]: while the
   clock reads below [min_due] no timer on the link is due, so a sweep
   needs only the table's size and whether any first send is pending,
   not a walk over it *)
type link_tx = {
  mutable next_lseq : int;
  unacked : (int, pending) Hashtbl.t;
  mutable min_due : int;  (* <= every unacked frame's [due] *)
  mutable firsts : int;  (* unacked frames with [attempts = 1] *)
  (* records no longer in [unacked], [spare.(0..nspare)], for the next
     frames sent on the link *)
  mutable spare : pending array;
  mutable nspare : int;
}

(* [p] left [ltx]'s table: its record waits for the next frame, pinning
   no bytes *)
let recycle ltx p =
  if ltx.nspare = Array.length ltx.spare then begin
    let spare = Array.make (max 4 (2 * ltx.nspare)) p in
    Array.blit ltx.spare 0 spare 0 ltx.nspare;
    ltx.spare <- spare
  end;
  p.frame <- Bytes.empty;
  ltx.spare.(ltx.nspare) <- p;
  ltx.nspare <- ltx.nspare + 1

(* a record for a frame sent at [due - rto]: a spare one when the link
   has one *)
let fresh_pending ltx frame ~rto ~due =
  if ltx.nspare = 0 then { frame; attempts = 1; rto_now = rto; due }
  else begin
    ltx.nspare <- ltx.nspare - 1;
    let p = ltx.spare.(ltx.nspare) in
    p.frame <- frame;
    p.attempts <- 1;
    p.rto_now <- rto;
    p.due <- due;
    p
  end

(* a link with nothing unacked *)
let clear_link ltx =
  Hashtbl.iter (fun _ p -> recycle ltx p) ltx.unacked;
  Hashtbl.reset ltx.unacked;
  ltx.min_due <- max_int;
  ltx.firsts <- 0

(* [p] leaves [ltx]'s unacked table *)
let drop_unacked ltx lseq p =
  Hashtbl.remove ltx.unacked lseq;
  if p.attempts = 1 then ltx.firsts <- ltx.firsts - 1;
  recycle ltx p;
  if Hashtbl.length ltx.unacked = 0 then ltx.min_due <- max_int

(* a link's duplicate memory: every lseq in [0, floor) was delivered,
   and [above] holds the delivered lseqs past the first gap.  In-order
   delivery only advances [floor], so while every gap is eventually
   filled [above] holds at most the frames in flight beyond a loss.
   A gap the sender gave up on ([max_attempts] in [idle]) is never
   filled: [floor] stays there and [above] gains one entry per later
   frame until an epoch change or [wipe_machine] resets the link.  The
   receiver cannot tell such a gap from a frame still being
   retransmitted, so it must not skip it on its own. *)
module Dedup = struct
  type t = { mutable floor : int; above : (int, unit) Hashtbl.t }

  let create () = { floor = 0; above = Hashtbl.create 8 }

  let reset d =
    d.floor <- 0;
    Hashtbl.reset d.above

  let rec advance d =
    if Hashtbl.mem d.above d.floor then begin
      Hashtbl.remove d.above d.floor;
      d.floor <- d.floor + 1;
      advance d
    end

  (* a forged negative lseq is never below the watermark: it is
     remembered in [above] like any other out-of-order frame *)
  let fresh d lseq =
    if (lseq >= 0 && lseq < d.floor) || Hashtbl.mem d.above lseq then false
    else begin
      if lseq = d.floor then begin
        d.floor <- lseq + 1;
        advance d
      end
      else Hashtbl.replace d.above lseq ();
      true
    end

  let pending d = Hashtbl.length d.above
end

module M = struct
  type t = {
    lower : Transport.t;
    n : int;
    metrics : Metrics.t;  (* the backend's *)
    pool : Msgbuf.Pool.buffers;  (* the backend's *)
    params : params;
    tx : link_tx array array;   (* tx.(src).(dest) *)
    rx : Dedup.t array array;   (* rx.(self).(src) *)
    det : det_cell array array; (* det.(self).(peer) *)
    clock : (unit -> int) option;  (* [None]: the clock is [tick] *)
    slice : float;  (* [recv_blocking_into]'s wait between idles, s *)
    idle_slice : float;  (* the same while no link holds an unacked frame *)
    mutable tick : int;  (* idle calls so far *)
    (* one [idle] sweep's tallies, reset at its start; under [lock].
       The lists hold what fired, last first. *)
    mutable sweep_unacked : int;
    mutable sweep_early : bool;  (* a first send whose rto has not run out *)
    mutable sweep_resend : (int * int * bytes) list;
    mutable sweep_gave_up : int list;
    mutable sweep_pings : (int * int) list;
    mutable sweep_events : (int * int * Transport.peer_event) list;
    lock : Mutex.t;
    mutable peer_hooks :
      (self:int -> peer:int -> Transport.peer_event -> unit) list;
    (* [receivers.(self)] carries [self] into the envelope parse's
       continuation, which takes two values besides the frame *)
    mutable receivers : receiver array;
  }

  and receiver = { rel : t; self : int }

  let is_reliable _ = true
  let charge t n = Metrics.add t.metrics Bytes_copied n

  let check t who =
    if who < 0 || who >= t.n then
      invalid_arg (Printf.sprintf "Reliable: bad machine id %d" who)

  let fire_peer t ~self ~peer ev =
    List.iter (fun f -> f ~self ~peer ev) t.peer_hooks

  (* the one reading every timer compares against *)
  let now t = match t.clock with Some f -> f () | None -> t.tick

  (* ---------------------------------------------------------------- *)
  (* send path: envelope, register for retransmission, ship raw        *)
  (* ---------------------------------------------------------------- *)

  (* control frames (acks, heartbeats): empty payload, built in a
     pooled writer instead of a throwaway one per frame *)
  let control_frame t ~kind ~src ~lseq =
    let epoch = Transport.self_epoch t.lower src in
    let p = t.pool in
    let w = Msgbuf.Pool.acquire_writer p in
    match
      let start =
        Envelope.encode_into w ~kind ~src ~epoch ~lseq ~payload:Bytes.empty ()
      in
      Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start)
    with
    | frame ->
        Msgbuf.Pool.release_writer p w;
        frame
    | exception e ->
        Msgbuf.Pool.release_writer p w;
        raise e

  (* [lseq] is fresh on its link: [next_lseq] only grows until
     [wipe_machine] clears the table with it *)
  let register_unacked t ~lseq ~ltx envelope =
    let due = now t + t.params.rto in
    Hashtbl.replace ltx.unacked lseq
      (fresh_pending ltx envelope ~rto:t.params.rto ~due);
    ltx.firsts <- ltx.firsts + 1;
    if due < ltx.min_due then ltx.min_due <- due

  (* envelope a payload already materialized as bytes: one blit into a
     pooled writer plus the single frame snapshot shared by the lower
     transport and the retransmit buffer *)
  let send_frame t ~src ~dest frame =
    let envelope =
      Msgbuf.Pool.with_writer t.pool (fun w ->
          Mutex.lock t.lock;
          let ltx = t.tx.(src).(dest) in
          let lseq = ltx.next_lseq in
          ltx.next_lseq <- lseq + 1;
          let start =
            Envelope.encode_into w ~kind:Data ~src
              ~epoch:(Transport.self_epoch t.lower src) ~lseq ~payload:frame ()
          in
          let envelope =
            Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start)
          in
          charge t (Bytes.length frame + Bytes.length envelope);
          register_unacked t ~lseq ~ltx envelope;
          Mutex.unlock t.lock;
          envelope)
    in
    Transport.send_raw t.lower ~src ~dest envelope

  (* the fast path: the payload sits in [w] after a reserved
     {!Envelope.gap}; the envelope header is back-filled in place and
     the frame snapshotted exactly once (the copy the lower transport
     and the retransmit buffer share) *)
  let send_frame_writer t ~src ~dest w ~payload_off =
    Mutex.lock t.lock;
    let ltx = t.tx.(src).(dest) in
    let lseq = ltx.next_lseq in
    ltx.next_lseq <- lseq + 1;
    let start =
      Envelope.frame_around w ~kind:Data ~src
        ~epoch:(Transport.self_epoch t.lower src) ~lseq ~payload_off
    in
    let envelope = Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start) in
    charge t (Bytes.length envelope);
    register_unacked t ~lseq ~ltx envelope;
    Mutex.unlock t.lock;
    Transport.send_raw t.lower ~src ~dest envelope

  let send t ~src ~dest msg =
    check t src;
    check t dest;
    Transport.account_send t.metrics (Bytes.length msg);
    send_frame t ~src ~dest msg

  (* frames a layer stacked above has already accounted for (a flushed
     batch group); enveloped all the same so reliability is preserved *)
  let send_raw t ~src ~dest frame =
    check t src;
    check t dest;
    send_frame t ~src ~dest frame

  let send_writer t ~src ~dest w ~payload_off =
    check t src;
    check t dest;
    Transport.account_send t.metrics (Msgbuf.length w - payload_off);
    send_frame_writer t ~src ~dest w ~payload_off

  let send_raw_writer t ~src ~dest w ~payload_off =
    check t src;
    check t dest;
    send_frame_writer t ~src ~dest w ~payload_off

  include Transport.Unbuffered (struct
    type nonrec t = t

    let send = send
  end)

  (* ---------------------------------------------------------------- *)
  (* receive path: unwrap, fence, ack, dedup                           *)
  (* ---------------------------------------------------------------- *)

  (* with [t.lock] held: a frame from [src] that passed the fence
     refreshes the detector and settles its link's state; true when it
     is a data frame not seen before *)
  let settle t self d kind ~src ~epoch ~lseq =
    if epoch > d.known_epoch then begin
      d.known_epoch <- epoch;
      (* the new incarnation restarts its lseq space at 0, so the old
         dedup memory would wrongly swallow its fresh frames *)
      Dedup.reset t.rx.(self).(src)
    end;
    d.last_heard <- now t;
    d.health <- Transport.Alive;
    match kind with
    | Envelope.Data -> Dedup.fresh t.rx.(self).(src) lseq
    | Envelope.Ack ->
        let ltx = t.tx.(self).(src) in
        (match Hashtbl.find ltx.unacked lseq with
        | p -> drop_unacked ltx lseq p
        | exception Not_found -> ());
        false
    | Envelope.Hb -> false

  (* the envelope around payload [buf.(off..off+len)] arrived for
     [self]: true, with [s] narrowed to the payload, to hand it up;
     false when the frame was consumed here (ack, heartbeat, duplicate
     or stale epoch).

     A data frame is acked first, even a duplicate (the earlier ack may
     have been lost), unless its epoch is fenced off.  The ack leaves
     before the dedup memory is consulted: sending it can advance the
     fault simulator's frame clock into a crash of [self], whose wipe
     must not erase this frame from that memory.  The epoch is read
     without the lock for this; it only grows, and the fence under the
     lock decides the frame's fate.  Then one critical section settles
     the fence, the detector and the link; a pong and the peer hooks
     follow outside it.

     Deciding everything after the ack has two consequences.  If the
     ack's send crashes [self], the wipe marks every peer Alive, so this
     frame fires no [Peer_recovered]; it would have described the view
     of the incarnation that just died (and [Node]'s hook ignores the
     event).  And a frame whose epoch a concurrent receive fences off
     between the unlocked read and the lock is acked, then dropped as
     stale: the drop is what the fence does to it a moment later, the
     ack what it got a moment earlier, when it would also have been
     delivered.  No test drives either race. *)
  let filter { rel = t; self } (s : Transport.slice) _buf kind ~src ~epoch
      ~lseq ~off ~len =
    let d = t.det.(self).(src) in
    let data = kind = Envelope.Data in
    if data && epoch >= d.known_epoch then begin
      Metrics.add t.metrics Acks_sent 1;
      Transport.send_raw t.lower ~src:self ~dest:src
        (control_frame t ~kind:Envelope.Ack ~src:self ~lseq)
    end;
    Mutex.lock t.lock;
    (* fence: a frame from an incarnation older than the best one we
       have seen is a ghost of a dead process *)
    let stale = epoch < d.known_epoch in
    let recovered = (not stale) && d.health <> Transport.Alive in
    let fresh = (not stale) && settle t self d kind ~src ~epoch ~lseq in
    Mutex.unlock t.lock;
    if recovered then fire_peer t ~self ~peer:src Transport.Peer_recovered;
    if stale then begin
      Metrics.add t.metrics Stale_drops 1;
      false
    end
    else if fresh then begin
      s.off <- off;
      s.len <- len;
      true
    end
    else begin
      if data then Metrics.add t.metrics Dup_drops 1
      else if kind = Envelope.Hb && lseq = Envelope.hb_ping then begin
        Metrics.add t.metrics Heartbeats_sent 1;
        Transport.send_raw t.lower ~src:self ~dest:src
          (control_frame t ~kind:Envelope.Hb ~src:self ~lseq:Envelope.hb_pong)
      end;
      false
    end

  (* the frame in [s], from the lower transport; one failing its
     checksum is dropped here (the sender's timer recovers it).  What is
     consumed here goes back to [lower] at once; a payload handed up
     narrows [s] to a slice of the same bytes, which the receiver's
     {!release} passes down. *)
  let admit t ~self (s : Transport.slice) =
    Envelope.parse s.buf ~off:s.off ~len:s.len ~garbled:false filter
      t.receivers.(self) s
    || begin
         Transport.release t.lower ~self s.buf;
         false
       end

  let release t ~self frame = Transport.release t.lower ~self frame

  (* the receive loops are top-level functions, not local closures, so
     an empty poll allocates nothing *)
  let rec drain t ~self s =
    Transport.try_recv_into t.lower ~self s
    && (admit t ~self s || drain t ~self s)

  let try_recv_into t ~self s =
    check t self;
    drain t ~self s

  let rec wait t ~self deadline s =
    let remain = Clock.remaining deadline in
    remain > 0.0
    && Transport.recv_deadline_into t.lower ~self ~seconds:remain s
    && (admit t ~self s || wait t ~self deadline s)

  let recv_deadline_into t ~self ~seconds s =
    check t self;
    (* one non-blocking pass first, so a zero or negative deadline
       still drains anything already deliverable *)
    try_recv_into t ~self s || wait t ~self (Clock.deadline_after seconds) s

  (* the adapter queues nothing a receive could return: an unacked
     frame is either in [lower], which counts it, or lost, and then only
     [idle] brings it back *)
  let pending_anywhere t = Transport.pending_anywhere t.lower

  (* ---------------------------------------------------------------- *)
  (* the retransmit + failure-detector clock                           *)
  (* ---------------------------------------------------------------- *)

  (* a crashed machine's timers freeze; a machine another process hosts
     is that process's concern — acting for it here would try to ship
     frames over links this process does not have *)
  let frozen t m =
    (not (Transport.is_hosted t.lower m))
    ||
    match Transport.faults t.lower with
    | None -> false
    | Some sim -> Fault_sim.is_down sim m

  (* sweep the detector at reading [now] (covers every observer, like
     the retransmit timers: in Sync mode one machine drives everyone's
     timers); with [t.lock] held.  The pings and events due land in
     [t.sweep_pings] and [t.sweep_events], last first *)
  let detector_sweep t now =
    for observer = 0 to t.n - 1 do
      if not (frozen t observer) then
        for peer = 0 to t.n - 1 do
          if observer <> peer then begin
            let d = t.det.(observer).(peer) in
            let quiet = now - d.last_heard in
            if quiet >= t.params.down_after && d.health = Transport.Suspect then begin
              d.health <- Transport.Down;
              t.sweep_events <-
                (observer, peer, Transport.Peer_confirmed_down) :: t.sweep_events
            end
            else if quiet >= t.params.suspect_after && d.health = Transport.Alive
            then begin
              d.health <- Transport.Suspect;
              t.sweep_events <-
                (observer, peer, Transport.Peer_suspected) :: t.sweep_events
            end;
            if
              quiet >= t.params.ping_every
              && now - d.last_ping >= t.params.ping_every
            then begin
              d.last_ping <- now;
              t.sweep_pings <- (observer, peer) :: t.sweep_pings
            end
          end
        done
    done

  (* one more attempt for [p]: its interval doubles up to the cap *)
  let rearm t ltx now p =
    if p.attempts = 1 then ltx.firsts <- ltx.firsts - 1;
    p.attempts <- p.attempts + 1;
    p.rto_now <- min (p.rto_now * 2) t.params.backoff_cap;
    p.due <- now + p.rto_now;
    if p.due < ltx.min_due then ltx.min_due <- p.due

  (* an rto waits out acks that are merely late.  When the lower
     transport holds no frame anywhere (only an in-process fabric can
     tell), a first send still unacked was probably lost, so it is
     resent at once rather than after the rto.  The guess can be
     wrong: the receiver may have taken the frame without acking it
     yet, or another domain may have registered a frame it has not
     shipped yet.  Dedup drops such a spurious copy.  A frame the fault
     schedule holds back is no reason to wait: only later sends on its
     link release it, this resend among them.  Later attempts keep the
     backoff schedule.  Without [t.lock]: [pending_anywhere] takes the
     lower transport's locks. *)
  let resend_first_sends t now =
    if not (Transport.pending_anywhere t.lower) then begin
      Mutex.lock t.lock;
      let resend = ref [] in
      Array.iteri
        (fun src row ->
          Array.iteri
            (fun dest ltx ->
              if ltx.firsts > 0 then
                Hashtbl.iter
                  (fun _ p ->
                    if p.attempts = 1 && p.due > now then begin
                      rearm t ltx now p;
                      resend := (src, dest, p.frame) :: !resend
                    end)
                  ltx.unacked)
            row)
        t.tx;
      Mutex.unlock t.lock;
      !resend
    end
    else []

  (* walk a link some timer on which may be due: resend what is due,
     abandon what ran out of attempts, and tighten [min_due] to the
     exact minimum of what stays *)
  let sweep_link t now src dest ltx =
    let expired = ref [] and min_due = ref max_int in
    Hashtbl.iter
      (fun lseq p ->
        if p.due > now then begin
          t.sweep_unacked <- t.sweep_unacked + 1;
          if p.attempts = 1 then t.sweep_early <- true;
          if p.due < !min_due then min_due := p.due
        end
        else if p.attempts >= t.params.max_attempts then
          expired := (lseq, p) :: !expired
        else begin
          rearm t ltx now p;
          t.sweep_unacked <- t.sweep_unacked + 1;
          t.sweep_resend <- (src, dest, p.frame) :: t.sweep_resend;
          if p.due < !min_due then min_due := p.due
        end)
      ltx.unacked;
    ltx.min_due <- !min_due;
    List.iter
      (fun (lseq, p) ->
        drop_unacked ltx lseq p;
        Metrics.add t.metrics Timeouts 1;
        t.sweep_gave_up <- dest :: t.sweep_gave_up)
      !expired

  let quiet_fabric t =
    (match Transport.faults t.lower with
    | None -> true
    | Some sim -> Fault_sim.held_frames sim = 0)
    && not (pending_anywhere t)

  (* While the clock reads below a link's [min_due] no frame on it is
     due: the sweep adds its summaries instead of walking its table.
     Only a link with a timer possibly due is walked, in the table's
     own order, so the retransmit streams are those of a full walk.
     Nothing is allocated unless some timer or detector event fires. *)
  let idle t ~self =
    check t self;
    (* the lower transport first: a chaos injector drains its due
       connection actions and crash transitions there *)
    ignore (Transport.idle t.lower ~self : Transport.idle_outcome);
    Mutex.lock t.lock;
    t.tick <- t.tick + 1;
    let now = now t in
    t.sweep_unacked <- 0;
    t.sweep_early <- false;
    t.sweep_resend <- [];
    t.sweep_gave_up <- [];
    t.sweep_pings <- [];
    t.sweep_events <- [];
    for src = 0 to t.n - 1 do
      let row = t.tx.(src) in
      for dest = 0 to t.n - 1 do
        let ltx = row.(dest) in
        if now < ltx.min_due then begin
          t.sweep_unacked <- t.sweep_unacked + Hashtbl.length ltx.unacked;
          if ltx.firsts > 0 then t.sweep_early <- true
        end
        else sweep_link t now src dest ltx
      done
    done;
    detector_sweep t now;
    let unacked = t.sweep_unacked and early = t.sweep_early in
    let resend = t.sweep_resend and gave_up = t.sweep_gave_up in
    let pings = List.rev t.sweep_pings and events = List.rev t.sweep_events in
    Mutex.unlock t.lock;
    (* the idle-count clock keeps its pinned schedule *)
    let resend =
      if early && Option.is_some t.clock then resend_first_sends t now @ resend
      else resend
    in
    (* each closure below is built only when its list is non-empty *)
    if resend <> [] then
      List.iter
        (fun (src, dest, frame) ->
          Metrics.add t.metrics Retries 1;
          Transport.send_raw t.lower ~src ~dest frame)
        (List.rev resend);
    if pings <> [] then
      List.iter
        (fun (observer, peer) ->
          Metrics.add t.metrics Heartbeats_sent 1;
          Transport.send_raw t.lower ~src:observer ~dest:peer
            (control_frame t ~kind:Envelope.Hb ~src:observer
               ~lseq:Envelope.hb_ping))
        pings;
    if events <> [] then
      List.iter
        (fun (observer, peer, ev) ->
          (match ev with
          | Transport.Peer_suspected -> Metrics.add t.metrics Suspects 1
          | Transport.Peer_confirmed_down -> Metrics.add t.metrics Peer_downs 1
          | Transport.Peer_recovered -> ());
          fire_peer t ~self:observer ~peer ev)
        events;
    if gave_up <> [] then Transport.Gave_up (List.sort_uniq compare gave_up)
    else if resend <> [] then Transport.Retransmitted (List.length resend)
    else if unacked = 0 && quiet_fabric t then Transport.Dead
    else Transport.Waiting

  (* true while some link holds a frame awaiting its ack.  Read without
     the lock: a stale answer only sets the length of one wait, and a
     machine that just sent a frame sees it before its next wait. *)
  let rec row_unacked row i =
    i < Array.length row
    && (row.(i).min_due < max_int || row_unacked row (i + 1))

  let rec unacked_anywhere tx src =
    src < Array.length tx
    && (row_unacked tx.(src) 0 || unacked_anywhere tx (src + 1))

  (* chop the wait into slices so a blocked machine keeps driving its
     own retransmit timers (a server whose reply was dropped must resend
     it even though it is only receiving).  With nothing unacked on any
     link no retransmit timer can come due, and the longer idle slice
     spares an idle receiver most of its wake-ups. *)
  let rec slices t ~self s =
    let seconds =
      if unacked_anywhere t.tx 0 then t.slice else t.idle_slice
    in
    if not (recv_deadline_into t ~self ~seconds s) then begin
      ignore (idle t ~self : Transport.idle_outcome);
      slices t ~self s
    end

  (* on the monotonic clock a receive that finds nothing sweeps before
     its first slice, as a polling worker's idle round does: a frame
     lost just before is resent now, not a slice later.  The idle-count
     clock sweeps only after a slice, since its give-up budget counts
     the sweeps *)
  let recv_blocking_into t ~self s =
    if not (try_recv_into t ~self s) then begin
      if Option.is_some t.clock then
        ignore (idle t ~self : Transport.idle_outcome);
      slices t ~self s
    end

  (* ---------------------------------------------------------------- *)
  (* peer health: the detector's verdicts, never [lower]'s             *)
  (* ---------------------------------------------------------------- *)

  let peer_health t ~self ~peer =
    check t self;
    check t peer;
    t.det.(self).(peer).health

  let on_peer_event t f = t.peer_hooks <- t.peer_hooks @ [ f ]
end

include M

(* a machine just crashed: everything it held in flight dies with it —
   link send state and dedup memory.  Peers' state about it survives
   (their retransmit timers are the recovery path).  Runs from the
   lower transport's process hook, after the lower layer dropped its
   own mailboxes. *)
let wipe_machine (t : M.t) m =
  Mutex.lock t.M.lock;
  let now = M.now t in
  Array.iter
    (fun ltx ->
      ltx.next_lseq <- 0;
      clear_link ltx)
    t.M.tx.(m);
  Array.iter Dedup.reset t.M.rx.(m);
  Array.iter
    (fun d ->
      d.last_heard <- now;
      d.last_ping <- now;
      d.health <- Transport.Alive)
    t.M.det.(m);
  Mutex.unlock t.M.lock

let wrap ?now ?params lower =
  let n = Transport.size lower in
  let defaults, start =
    match now with
    | None -> (default_params, 0)
    | Some f -> (clock_params, f ())
  in
  let params = Option.value params ~default:defaults in
  let t =
    {
      M.lower;
      n;
      metrics = Transport.metrics lower;
      pool = Transport.pool lower;
      params;
      tx =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                {
                  next_lseq = 0;
                  unacked = Hashtbl.create 8;
                  min_due = max_int;
                  firsts = 0;
                  spare = [||];
                  nspare = 0;
                }));
      rx =
        Array.init n (fun _ ->
            Array.init n (fun _ -> Dedup.create ()));
      det =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                {
                  last_heard = start;
                  last_ping = start;
                  health = Transport.Alive;
                  known_epoch = 0;
                }));
      clock = now;
      (* the monotonic clock's timers are due an rto after a send, so a
         blocked receiver looks at them that often while a frame is
         unacked; the idle-count clock keeps 2 ms slices, in which
         process mode's give-up budget is counted *)
      slice =
        (match now with
        | None -> 0.002
        | Some _ -> float_of_int params.rto *. 1e-6);
      idle_slice = (match now with None -> 0.002 | Some _ -> clock_idle_slice);
      tick = 0;
      sweep_unacked = 0;
      sweep_early = false;
      sweep_resend = [];
      sweep_gave_up = [];
      sweep_pings = [];
      sweep_events = [];
      lock = Mutex.create ();
      peer_hooks = [];
      receivers = [||];
    }
  in
  t.M.receivers <- Array.init n (fun self -> { M.rel = t; self });
  (* registered before any runtime hook, so a crashed machine's ARQ
     state is already wiped when node-level hooks drop their caches *)
  Transport.on_process_event lower (function
    | Transport.Proc_crashed { machine; _ } -> wipe_machine t machine
    | Transport.Proc_restarted _ -> ());
  Transport.stack lower (module M) t
