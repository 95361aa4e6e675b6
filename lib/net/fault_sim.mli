(** Deterministic fault-schedule simulator for the cluster interconnect.

    The paper's testbed (Myrinet/GM) delivers messages reliably and in
    order, so Manta's RMI never has to survive loss.  To grow the
    runtime toward lossy production networks we substitute a seeded
    simulator: every physical frame crossing a link may be dropped,
    duplicated, corrupted (one bit flipped), or held back for a bounded
    number of later sends on the same link (delay/reordering).

    Every decision is drawn from a per-link splitmix64 stream derived
    from one [seed], and a fixed number of samples is consumed per
    frame regardless of outcome, so the schedule for a given workload
    is a pure function of [(seed, per-link frame sequence)].  Any
    failing run replays exactly from its seed, and [digest] renders the
    full decision log so two runs can be compared byte-for-byte. *)

type profile = {
  drop : float;       (** probability a frame vanishes *)
  duplicate : float;  (** probability a frame is delivered twice *)
  reorder : float;    (** probability a frame is held back (reordered) *)
  corrupt : float;    (** probability one bit of the frame is flipped *)
  max_delay : int;    (** held frames release after <= this many later
                          sends on the same link (>= 1) *)
}

(** Moderate loss on every fault axis; what [--faults seed=N] uses. *)
val default_lossy : profile

(** All probabilities zero: the simulator becomes a pass-through. *)
val lossless : profile

(** Process faults (PR 3).  Beyond link faults, the simulator can kill
    a machine at a scheduled point on the global frame clock and
    optionally restart it later with a bumped incarnation ([epoch]).
    While down, the machine neither sends nor receives: frames it emits
    are swallowed, frames addressed to it are swallowed, and frames
    already queued toward it in a reorder hold are purged (its mailbox
    died with it).  Frames it emitted {e before} dying stay held — when
    they surface after a restart they carry the old epoch and must be
    fenced by the transport.

    [Durable] models a node whose reply cache lives on stable storage
    (exactly-once across the crash); [Amnesia] models a diskless node
    that forgets everything (retried calls may re-execute). *)

type durability = Durable | Amnesia

type crash_spec = {
  victim : int;                (** machine to kill *)
  crash_at : int;              (** global frame-clock value that triggers it *)
  restart_after : int option;  (** frames of outage; [None] = stays down *)
  durability : durability;
}

(** What happened since the last {!take_transitions}; the transport
    drains these to wipe mailboxes/link state and notify nodes. *)
type transition =
  | Crashed of { machine : int; durability : durability }
  | Restarted of { machine : int; epoch : int; durability : durability }

type t

(** [create ~seed ~n profile] simulates the [n*n] directed links of an
    [n]-machine cluster. *)
val create : seed:int -> n:int -> profile -> t

val seed : t -> int

(** Keep the frames [on_send] returns and holds back as holders in
    [pool] — the pool of the transport the simulator is installed on,
    so a frame it holds back keeps its bytes until it is delivered. *)
val set_frame_pool : t -> Frame_pool.t -> unit

(** Install a crash/restart schedule.  Validates victims and times;
    entries fire when the global frame clock reaches [crash_at].  A
    spec whose victim is already down is consumed silently. *)
val set_crash_plan : t -> crash_spec list -> unit

(** A deterministic crash plan drawn from its own splitmix stream
    (disjoint from every link stream): [crashes] crash/restart pairs
    with victims in [1..n-1] (machine 0 drives harness workloads and
    never crashes), consecutive crashes separated by at most [max_gap]
    frames beyond the previous outage, outages of at most [max_outage]
    frames. *)
val seeded_crash_plan :
  seed:int -> n:int -> ?crashes:int -> ?durability:durability ->
  ?max_gap:int -> ?max_outage:int -> unit -> crash_spec list

(** Drain crash/restart events fired since the last call, oldest
    first. *)
val take_transitions : t -> transition list

val is_down : t -> int -> bool

(** Current incarnation of machine [m]: 0 until its first restart. *)
val epoch_of : t -> int -> int

(** Global frame-clock value (total [on_send] calls so far). *)
val frame_clock : t -> int

(** [on_send t ~src ~dest frame] applies the link's next scheduled
    faults and returns the frames to deliver now, in order: the current
    frame's survivors followed by any previously held frames whose
    delay just expired.  May return [[]] (dropped or held).

    With a frame pool attached ({!set_frame_pool}), each frame returned
    carries one holder in it for the caller to hand on (a mailbox
    push): a duplicated frame is returned twice, with two.  A frame
    held back holds one while it waits, and one held back toward a
    machine that crashes is let go when purged; a dropped frame gains
    none.  A corrupted frame is a fresh copy, which the pool does not
    know. *)
val on_send : t -> src:int -> dest:int -> bytes -> bytes list

(** Frames currently held for delayed delivery (diagnostics). *)
val held_frames : t -> int

(** The decision log so far, one line per fault decision.  Two runs of
    the same workload from the same seed produce equal digests. *)
val digest : t -> string
