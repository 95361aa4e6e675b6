(** The [Sock] backend: a real Unix/TCP interconnect implementing
    {!Transport.BACKEND}.

    [n] machine endpoints in a full TCP mesh (one connection per
    unordered pair; the higher id initiates, a 4-byte hello names the
    connector).

    {b Receiving.}  The thread that waits for a frame reads its own
    endpoint's sockets, the way a GM caller polls for its reply: the
    slice-receive family pops the endpoint's inbox and, when it is
    empty, reads the endpoint's connections itself — reassembling the
    length-prefixed byte stream and queueing every whole frame it
    completes.  [try_recv_slice] makes one zero-timeout [poll] over a
    per-endpoint fd array, cached until a connection is registered or
    killed (an empty poll neither blocks nor allocates);
    [recv_blocking_slice] and [recv_deadline_slice] block in one
    [poll] over the connections plus a wake pipe of the receiver's own
    (pooled on the endpoint), which a frame queued by another thread, a
    self-send, a new or killed connection and [shutdown] write to.  Each
    connection has a read lock, so several threads (or domains) may
    receive on one endpoint: every frame reaches exactly one of them,
    in order per link.  [poll], not select, whose FD_SETSIZE would cap
    the mesh (see {!max_loopback_machines}).  Batch frames are split by
    the {!Batching} layer above.

    A frame is handed up in place, as a slice of the connection's read
    buffer, and not charged to [bytes_copied].  Each read buffer counts
    the slices it handed up whose {!Transport.S.release} is
    outstanding, and no byte of such a slice is written while it is:
    the partial frame after the parse position moves to the buffer's
    front at the next read only once the count is 0; otherwise the read
    goes on into the free space, and a full buffer moves only its
    partial tail into a spare buffer whose slices are all released, or
    into fresh bytes.  So a receiver that releases every slice reads
    into the same storage and allocates nothing, and one that never
    releases keeps its frames and pays about their bytes in fresh
    buffers (never a buffer per read).  A connection keeps four read
    buffers; when every spare still has slices out, one is given up in
    turn for fresh bytes, and releases of its slices are ignored.
    [release] finds the buffer among [self]'s connections by physical
    equality, ignores bytes it does not own (a self-send's frame) and
    raises [Invalid_argument] when a count would go below 0.

    {b Sending.}  Each connection has a 64 KiB send buffer (a
    "cork").  A frame for an endpoint hosted in this process is
    appended to it — length prefix and payload, one copy, charged to
    [bytes_copied] — and nothing is written at send time.  The cork
    leaves in one [write] when
    - any thread is about to poll this transport's sockets: an empty
      [try_recv_slice], a blocking receive after it enlists its wake
      pipe, and {!Transport.S.idle} first write out every non-empty
      cork; or
    - the sender, after buffering, finds a receiver of the destination
      already blocked in [poll] (it checks under the lock the receiver
      enlists under, so one of the two always writes the frame).
    So a sent frame reaches its receiver with no further action by the
    sender, and a synchronous fabric's window of requests (or replies)
    crosses the kernel in one [write].  Self-sends are queued directly.
    Frames for another process are written at once: no thread here
    can flush for it.  A frame too large for an empty cork (64 KiB and
    up) flushes the cork, then goes out straight from the caller's
    storage; the zero-copy path back-fills its length prefix into the
    reserved {!Envelope.gap} and writes prefix+payload in one [write].
    A killed connection drops its cork and takes back the cork's
    in-flight charges.  {!writes} counts the [write] calls.

    A background event-loop thread only sets connections up: it
    accepts peers and reads their hellos.  Sockets are non-blocking; a
    write that finds the kernel buffer full reads what the writing
    thread can (the receiving end when it is hosted here, the writer's
    own inbound links) before it retries, so one thread can send a
    frame larger than the buffers and then receive it.

    Framing is a 4-byte big-endian length prefix per frame.

    TCP already delivers reliably and in order {e while a connection
    lives}, so the backend is raw-like: [is_reliable] is [false] and
    {!Transport.S.idle} returns [Raw_transport].  Exactly-once across
    link and process failures is the {!Reliable} adapter's job,
    stacked above this backend.

    {b Link death and reconnection.}  A connection that EOFs, errors,
    or garbles its framing is killed: its unread in-flight share is
    reclaimed, the peer is marked [Down] and [Peer_confirmed_down]
    fires.  The side that originally initiated (higher id) then redials
    with capped exponential backoff and deterministic jitter until the
    link re-forms (or 30 s pass); the accepting side's conn re-forms
    when the fresh connect is promoted.  A fresh conn starts with an
    empty reassembly buffer — a frame half-written when the old
    connection died is discarded at the length-prefix boundary — and
    bumps the link generation ({!link_generation}).  A duplicate
    connect from an already-connected peer id replaces the older conn
    (the newest connection is the one the reconnecting initiator
    writes to).

    {b Chaos.}  {!Transport.BACKEND.set_faults} wraps the schedule in a
    {!Chaos} injector (empty connection plan); creation takes [?chaos]
    for a full injector with sever/stall actions.  Every outbound frame
    then passes through the injector — drops, duplicates, holds,
    corruption and kill/restart replay the Sim backend's seeded
    semantics over real sockets — and [self_epoch]/[faults] answer from
    the embedded simulator.

    Two modes:
    - {e loopback}: all [n] endpoints hosted in this process over
      127.0.0.1 ephemeral ports — real syscalls, one address space
      (the [transport_compare] gate and the conformance tests).
    - {e process}: only [self] is hosted; everything else is a peer
      address ([--listen]/[--peers] in [rmi-experiments proc]). *)

type t

(** Erase into a first-class transport. *)
val pack : t -> Transport.t

(** The loopback machine ceiling for this process: the largest [n]
    whose full mesh (wake pipes, [n] listeners, [n(n-1)] conn fds,
    formation-transient pending accepts) fits the RLIMIT_NOFILE budget
    with headroom, capped at 512. *)
val max_loopback_machines : unit -> int

(** [create_loopback ~n metrics] hosts all [n] endpoints on
    127.0.0.1 ephemeral ports and blocks until the mesh is complete.
    Raises [Invalid_argument] when [n] exceeds
    {!max_loopback_machines}. *)
val create_loopback :
  ?chaos:Chaos.t -> n:int -> Rmi_stats.Metrics.t -> Transport.t

(** {!create_loopback} returning the unpacked handle (tests use the
    diagnostic surface below; [pack] it for the runtime). *)
val create_loopback_t : ?chaos:Chaos.t -> n:int -> Rmi_stats.Metrics.t -> t

(** [create_process ~self ~addrs metrics] hosts endpoint [self] of
    [Array.length addrs] machines; [addrs.(i)] is machine [i]'s
    [(host, port)].  Binds [addrs.(self)] (or [?listen], e.g. to bind
    0.0.0.0 behind NAT), connects to every lower id (retrying while
    peers boot), accepts every higher id, and blocks until the mesh is
    complete (30 s timeout).

    [?epoch] (default 0) is the incarnation number this process stamps
    on its frames (visible through [self_epoch], used by the
    {!Reliable} adapter's envelopes).  Restart a killed server with a
    higher epoch so surviving peers fence its previous life's frames
    and reset their per-link duplicate-suppression state. *)
val create_process :
  ?chaos:Chaos.t ->
  ?epoch:int ->
  ?listen:string * int ->
  self:int ->
  addrs:(string * int) array ->
  Rmi_stats.Metrics.t ->
  Transport.t

(** {1 Diagnostic surface (unpacked handle)} *)

(** Install / read the chaos injector. *)
val set_chaos : t -> Chaos.t -> unit

val chaos : t -> Chaos.t option

(** How many times the (owner, peer) conn has been (re)registered:
    1 after mesh formation, +1 per reconnect or duplicate-connect
    replacement. *)
val link_generation : t -> owner:int -> peer:int -> int

(** How many [write(2)] calls have carried frame bytes on this
    transport's connections (each successful call; hellos are not
    counted) — how well the corks coalesce. *)
val writes : t -> int

(** Kill the TCP connection between [a] and [b] mid-stream (both
    hosted conn records if loopback).  Reconnection then re-forms it —
    the test hook behind the chaos [Sever] action. *)
val sever : t -> a:int -> b:int -> unit

(** The bound TCP port of a hosted endpoint's listener (tests dial it
    raw to probe the handshake paths). *)
val listen_port : t -> int -> int
