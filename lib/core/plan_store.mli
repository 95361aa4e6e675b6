(** A fabric's plan registry: every version of every call site's
    serialization plan, one entry per site.

    The store decouples "which plan does this site use" from "when was
    it compiled": a fabric installs the compiler's plans, the runtime
    starts adaptive sites on {!Plan.generic}, asks the store for the
    specialized plan when a site turns hot, and widens (deoptimizes)
    plans through it, so every node decodes every version and a node
    restarted after a crash re-learns the repaired encoding instead of
    re-hitting the same [Type_confusion].

    A site's versions form a chain: {!widen} widens the site's latest
    plan and numbers the result one above it, under the store's lock,
    so the latest version is always the widest and a number names one
    plan.

    Entries compiled from a source are guarded by a content hash of the
    program the plan was compiled from.  If it changes — any method
    edited, a class relaid — the next {!get} notices the stale hash,
    drops every cached version and recompiles through the pass
    manager. *)

type t

(** How a {!get} was satisfied. *)
type outcome =
  | Hit  (** cached plan returned, hash still valid *)
  | Compiled  (** first request for this site: compiled and cached *)
  | Invalidated
      (** hash changed: stale versions dropped, plan recompiled *)
  | Installed
      (** the source cannot compile the site: the latest of the versions
          installed and widened here *)

(** Where plans come from.  [src_hash site] is [None] when the source
    knows nothing about the site; [src_compile site] runs the compiler
    pipeline for one site. *)
type source = {
  src_hash : Jir.Types.site -> string option;
  src_compile : Jir.Types.site -> Plan.t option;
}

val create : source -> t

(** A store with a source that knows no site: it holds only what is
    installed and widened. *)
val empty : unit -> t

(** [install t plan] makes [plan] the entry of [plan.callsite] unless
    the store already holds one.  An installed entry counts as not yet
    compiled: a source that knows the site compiles it on the first
    {!get}, which answers [Compiled]. *)
val install : t -> Plan.t -> unit

(** [get t ~site] returns the current latest plan for [site] together
    with how it was obtained, or [None] when the store neither compiles
    nor holds one.

    Safe to call from concurrent domains: the cache probe runs under
    the store mutex but [src_compile] runs outside it, so one slow
    compile never serializes the other domains' lookups.  When two
    domains race to compile the same site, the first install wins and
    the loser adopts it as a [Hit] — plans the winner already widened
    are never clobbered. *)
val get : t -> site:Jir.Types.site -> (Plan.t * outcome) option

(** [latest t ~site] is the site's latest plan, without compiling or
    counting a lookup. *)
val latest : t -> site:Jir.Types.site -> Plan.t option

(** [version t ~site v] looks up one specific plan version (e.g. to
    decode a request tagged with an older encoding). *)
val version : t -> site:Jir.Types.site -> int -> Plan.t option

(** [widen t ~site pos] records {!Plan.widen} of the site's latest plan
    at [pos] as its next version and returns it with [true]; when [pos]
    is already dynamic in the latest plan, it returns that plan
    unchanged with [false].
    @raise Invalid_argument when the store holds no plan for [site] *)
val widen : t -> site:Jir.Types.site -> Plan.position -> Plan.t * bool

(** Counts the changes of any site's latest plan: a reader re-reads
    {!latest} only after it moves. *)
val generation : t -> int

(** Lifetime counters. *)

val hits : t -> int
val misses : t -> int
val invalidations : t -> int

(** [source_of_optimizer ?config opt] builds a source over an analyzed
    program: the hash covers the whole program — every method body,
    class layout and static — because a site's verdicts also depend on
    methods outside its caller and callee (the callee's local calls,
    every store into a static).  The method records are mutable, so
    editing any method changes the hash and invalidates the entry.
    Compilation re-runs {!Optimizer.run} — through the pass manager —
    on the current state of the program. *)
val source_of_optimizer : ?config:Codegen.config -> Optimizer.t -> source
