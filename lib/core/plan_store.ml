type outcome = Hit | Compiled | Invalidated

type source = {
  src_hash : Jir.Types.site -> string option;
  src_compile : Jir.Types.site -> Plan.t option;
}

type entry = {
  mutable e_hash : string;
  e_plans : (int, Plan.t) Hashtbl.t;  (* version -> plan *)
  mutable e_latest : int;
}

type t = {
  source : source;
  entries : (Jir.Types.site, entry) Hashtbl.t;
  mutex : Mutex.t;  (* nodes may live in separate domains *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_invalidations : int;
}

let create source =
  {
    source;
    entries = Hashtbl.create 16;
    mutex = Mutex.create ();
    n_hits = 0;
    n_misses = 0;
    n_invalidations = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let fresh_entry hash (plan : Plan.t) =
  let e_plans = Hashtbl.create 4 in
  Hashtbl.replace e_plans plan.Plan.version plan;
  { e_hash = hash; e_plans; e_latest = plan.Plan.version }

(* under the lock: a cache probe only — never compiles *)
let probe t ~site ~hash =
  match Hashtbl.find_opt t.entries site with
  | Some e when e.e_hash = hash ->
      t.n_hits <- t.n_hits + 1;
      (match Hashtbl.find_opt e.e_plans e.e_latest with
      | Some plan -> `Hit plan
      | None -> `Broken)
  | Some _ -> `Stale
  | None -> `Miss

let get t ~site =
  match t.source.src_hash site with
  | None -> None
  | Some hash -> (
      match locked t (fun () -> probe t ~site ~hash) with
      | `Hit plan -> Some (plan, Hit)
      | `Broken -> None
      | `Stale | `Miss -> (
          (* compile OUTSIDE the lock: [src_compile] reruns the
             optimizer, and holding the mutex across it would serialize
             every concurrently-promoting domain behind one compile *)
          match t.source.src_compile site with
          | None -> None
          | Some plan ->
              locked t (fun () ->
                  (* double-check: another domain may have installed
                     the same hash while we compiled — count its entry
                     as our hit instead of clobbering plans it may
                     already have widened *)
                  match probe t ~site ~hash with
                  | `Hit plan' -> Some (plan', Hit)
                  | `Broken -> None
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
                      Hashtbl.replace t.entries site (fresh_entry hash plan);
                      Some (plan, outcome))))

let version t ~site v =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries site with
      | None -> None
      | Some e -> Hashtbl.find_opt e.e_plans v)

let latest_version t ~site =
  locked t (fun () ->
      Option.map (fun e -> e.e_latest) (Hashtbl.find_opt t.entries site))

let publish t (plan : Plan.t) =
  let site = plan.Plan.callsite in
  locked t (fun () ->
      match Hashtbl.find_opt t.entries site with
      | None ->
          let hash =
            match t.source.src_hash site with Some h -> h | None -> ""
          in
          Hashtbl.replace t.entries site (fresh_entry hash plan)
      | Some e ->
          Hashtbl.replace e.e_plans plan.Plan.version plan;
          if plan.Plan.version > e.e_latest then
            e.e_latest <- plan.Plan.version)

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
