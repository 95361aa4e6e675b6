(** Content-addressed cache of serialization plans, one entry per call
    site.

    The store decouples "which plan does this site use" from "when was
    it compiled": the runtime starts sites on {!Plan.generic}, asks the
    store for the specialized plan when a site turns hot, and publishes
    widened (deoptimized) plans back so every node — and a node
    restarted after a crash — re-learns the repaired encoding instead
    of re-hitting the same [Type_confusion].

    Entries are keyed by call site and guarded by a content hash of the
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

(** Where plans come from.  [src_hash site] is [None] when the source
    knows nothing about the site (the store then answers [None] too);
    [src_compile site] runs the compiler pipeline for one site. *)
type source = {
  src_hash : Jir.Types.site -> string option;
  src_compile : Jir.Types.site -> Plan.t option;
}

val create : source -> t

(** [get t ~site] returns the current latest plan for [site] together
    with how it was obtained, or [None] when the source cannot compile
    the site at all.

    Safe to call from concurrent domains: the cache probe runs under
    the store mutex but [src_compile] runs outside it, so one slow
    compile never serializes the other domains' lookups.  When two
    domains race to compile the same site, the first install wins and
    the loser adopts it as a [Hit] — plans the winner already widened
    are never clobbered. *)
val get : t -> site:Jir.Types.site -> (Plan.t * outcome) option

(** [version t ~site v] looks up one specific cached plan version
    (e.g. to decode a request tagged with an older encoding). *)
val version : t -> site:Jir.Types.site -> int -> Plan.t option

(** [latest_version t ~site] is the highest version cached for [site],
    without compiling or counting a lookup. *)
val latest_version : t -> site:Jir.Types.site -> int option

(** [publish t plan] records [plan] under [(plan.callsite,
    plan.version)] and makes it the site's latest when its version is
    the highest seen.  Used by the deoptimizer to share widened plans. *)
val publish : t -> Plan.t -> unit

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
