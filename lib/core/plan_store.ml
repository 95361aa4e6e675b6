type outcome = Hit | Compiled | Invalidated | Installed

type source = {
  src_hash : Jir.Types.site -> string option;
  src_compile : Jir.Types.site -> Plan.t option;
}

(* one site's versions.  [e_hash] is the program digest the entry was
   compiled under, [None] for an installed plan not yet compiled. *)
type entry = {
  e_hash : string option;
  e_plans : (int, Plan.t) Hashtbl.t;  (* version -> plan *)
  mutable e_latest : Plan.t;  (* the widest: every widening widens it *)
}

type t = {
  source : source;
  entries : (Jir.Types.site, entry) Hashtbl.t;
  mutex : Mutex.t;  (* nodes may live in separate domains *)
  generation : int Atomic.t;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_invalidations : int;
}

let create source =
  {
    source;
    entries = Hashtbl.create 16;
    mutex = Mutex.create ();
    generation = Atomic.make 0;
    n_hits = 0;
    n_misses = 0;
    n_invalidations = 0;
  }

let empty () =
  create { src_hash = (fun _ -> None); src_compile = (fun _ -> None) }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let generation t = Atomic.get t.generation

(* under the lock: [plan] becomes the entry's latest version *)
let set_latest t e (plan : Plan.t) =
  Hashtbl.replace e.e_plans plan.Plan.version plan;
  e.e_latest <- plan;
  Atomic.incr t.generation

let add_entry t ~site ~hash plan =
  let e = { e_hash = hash; e_plans = Hashtbl.create 4; e_latest = plan } in
  Hashtbl.replace t.entries site e;
  set_latest t e plan

let install t (plan : Plan.t) =
  let site = plan.Plan.callsite in
  locked t (fun () ->
      if not (Hashtbl.mem t.entries site) then
        add_entry t ~site ~hash:None plan)

(* under the lock: a cache probe only — never compiles *)
let probe t ~site ~hash =
  match Hashtbl.find_opt t.entries site with
  | Some { e_hash = Some h; e_latest; _ } when h = hash ->
      t.n_hits <- t.n_hits + 1;
      `Hit e_latest
  | Some { e_hash = Some _; _ } -> `Stale
  | Some { e_hash = None; _ } | None -> `Miss

let latest t ~site =
  locked t (fun () ->
      Option.map (fun e -> e.e_latest) (Hashtbl.find_opt t.entries site))

let installed t ~site = Option.map (fun p -> (p, Installed)) (latest t ~site)

let get t ~site =
  match t.source.src_hash site with
  | None -> installed t ~site
  | Some hash -> (
      match locked t (fun () -> probe t ~site ~hash) with
      | `Hit plan -> Some (plan, Hit)
      | `Stale | `Miss -> (
          (* compile OUTSIDE the lock: [src_compile] reruns the
             optimizer, and holding the mutex across it would serialize
             every concurrently-promoting domain behind one compile *)
          match t.source.src_compile site with
          | None -> installed t ~site
          | Some plan ->
              locked t (fun () ->
                  (* double-check: another domain may have installed
                     the same hash while we compiled — count its entry
                     as our hit instead of clobbering plans it may
                     already have widened *)
                  match probe t ~site ~hash with
                  | `Hit plan' -> Some (plan', Hit)
                  | (`Stale | `Miss) as miss ->
                      t.n_misses <- t.n_misses + 1;
                      let outcome =
                        match miss with
                        | `Miss -> Compiled
                        | `Stale ->
                            t.n_invalidations <- t.n_invalidations + 1;
                            Invalidated
                      in
                      (* stale versions are dropped wholesale: widened
                         descendants of an outdated plan are outdated
                         too *)
                      add_entry t ~site ~hash:(Some hash) plan;
                      Some (plan, outcome))))

let version t ~site v =
  locked t (fun () ->
      Option.bind (Hashtbl.find_opt t.entries site) (fun e ->
          Hashtbl.find_opt e.e_plans v))

let dynamic (p : Plan.t) = function
  | `Arg i -> p.Plan.args.(i) = Plan.S_dyn
  | `Ret -> p.Plan.ret = Some Plan.S_dyn

let widen t ~site pos =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries site with
      | None -> invalid_arg "Plan_store.widen: no plan for the site"
      | Some e when dynamic e.e_latest pos -> (e.e_latest, false)
      | Some e ->
          set_latest t e (Plan.widen e.e_latest pos);
          (e.e_latest, true))

let hits t = locked t (fun () -> t.n_hits)
let misses t = locked t (fun () -> t.n_misses)
let invalidations t = locked t (fun () -> t.n_invalidations)

let source_of_optimizer ?config (opt : Optimizer.t) =
  let prog = opt.Optimizer.prog in
  let program_hash site =
    match Optimizer.decision_for opt site with
    | None -> None
    | Some _ ->
        (* the analyses behind a plan read more than the call's own
           slice: the escape verdict follows the callee's local calls
           and the whole program's static points-to sets.  So the
           digest covers the whole program — every method body, class
           layout and static.  The method records are mutable, so
           editing any of them changes the digest. *)
        Some (Digest.string (Marshal.to_string prog []))
  in
  let compile site =
    let opt' = Optimizer.run ?config prog in
    match Optimizer.decision_for opt' site with
    | Some d -> Some d.Optimizer.plan
    | None -> None
  in
  { src_hash = program_hash; src_compile = compile }
