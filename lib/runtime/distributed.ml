module I = Jir.Interp
module Program = Jir.Program
module Plan = Rmi_core.Plan

type result = {
  value : I.value;
  statics : I.value array;
  stats : Rmi_stats.Metrics.snapshot;
  wall_seconds : float;
  remote_objects : int;
}

(* remote-instance placement: interpreter object identity -> remote ref *)
type placement = {
  registry : Registry.t;
  table : (int, Remote_ref.t) Hashtbl.t;
  mutex : Mutex.t;
}

let run ?(config = Config.site_reuse_cycle) ?(mode = Fabric.Sync)
    ?(backend = Fabric.Sim) ?(machines = 2) ?faults prog ~entry args =
  let opt = Rmi_core.Optimizer.run prog in
  let meta = Rmi_serial.Class_meta.of_program prog in
  let plans = Hashtbl.create 16 in
  List.iter
    (fun (d : Rmi_core.Optimizer.decision) ->
      Hashtbl.replace plans d.plan.Plan.callsite d.plan)
    opt.decisions;
  let metrics = Rmi_stats.Metrics.create () in
  (* adaptive runs get the compiler's plan cache so promotions are
     served (and counted) through it; AOT runs don't need one *)
  let plan_store =
    match config.Config.tier with
    | Config.Aot -> None
    | Config.Adaptive ->
        Some
          (Rmi_core.Plan_store.create
             (Rmi_core.Plan_store.source_of_optimizer opt))
  in
  let fabric =
    Fabric.create ~mode ~backend ?faults ?plan_store ~n:machines ~meta ~config
      ~plans ~metrics ()
  in
  let placement =
    { registry = Registry.create fabric; table = Hashtbl.create 16;
      mutex = Mutex.create () }
  in
  (* one interpreter per machine, each with its own statics; the hook
     routes the machine's remote calls through its own node *)
  let states = Array.make machines None in
  let state_of machine =
    match states.(machine) with Some st -> st | None -> assert false
  in
  (* handlers for every remote method of a class, running the method
     body in the owning machine's interpreter *)
  let specs_of_class machine cid =
    Program.remote_methods prog
    |> List.filter (fun (m : Program.method_decl) -> m.owner = Some cid)
    |> List.map (fun (m : Program.method_decl) ->
           {
             Registry.meth = m.mid;
             has_ret = not (Jir.Types.equal_ty m.ret Jir.Types.Tvoid);
             handler =
               (fun rargs ->
                 let iargs =
                   Array.to_list (Array.map Jir_bridge.of_runtime rargs)
                 in
                 let result =
                   (* interpreter faults become clean remote errors *)
                   try I.run (state_of machine) m.mid iargs with
                   | I.Runtime_error msg -> failwith msg
                   | I.Step_limit_exceeded -> failwith "step limit exceeded"
                 in
                 if Jir.Types.equal_ty m.ret Jir.Types.Tvoid then None
                 else Some (Jir_bridge.to_runtime result));
           })
  in
  let place_receiver (recv : I.value) =
    match recv with
    | I.Vobj o -> (
        Mutex.lock placement.mutex;
        match Hashtbl.find_opt placement.table o.I.oid with
        | Some r ->
            Mutex.unlock placement.mutex;
            r
        | None ->
            (* JavaParty-style: new remote instances go round-robin *)
            let machine = Registry.next_machine placement.registry in
            let r =
              Registry.new_remote placement.registry
                (specs_of_class machine o.I.ocls)
            in
            Hashtbl.replace placement.table o.I.oid r;
            Mutex.unlock placement.mutex;
            r)
    | I.Vnull -> failwith "Distributed.run: remote call on null"
    | _ -> failwith "Distributed.run: remote receiver is not an object"
  in
  let hook machine : I.remote_hook =
   fun ~site ~recv ~meth args ->
    let dest = place_receiver recv in
    let callee = Program.method_decl prog meth in
    let has_ret = not (Jir.Types.equal_ty callee.ret Jir.Types.Tvoid) in
    let rargs =
      Array.of_list (List.map Jir_bridge.to_runtime args)
    in
    match
      Node.call (Fabric.node fabric machine) ~dest ~meth ~callsite:site
        ~has_ret rargs
    with
    | Some v -> Some (Jir_bridge.of_runtime v)
    | None -> None
  in
  for m = 0 to machines - 1 do
    states.(m) <- Some (I.create ~remote_hook:(hook m) prog)
  done;
  Fabric.run fabric (fun _ ->
      let t0 = Rmi_net.Clock.now_us () in
      let value = I.run (state_of 0) entry args in
      let wall_seconds = float_of_int (Rmi_net.Clock.now_us () - t0) *. 1e-6 in
      {
        value;
        statics =
          Array.init
            (Array.length prog.Program.statics)
            (fun i -> I.read_static (state_of 0) i);
        stats = Rmi_stats.Metrics.snapshot metrics;
        wall_seconds;
        remote_objects = Registry.exported placement.registry;
      })
