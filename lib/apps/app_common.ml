type compiled = {
  prog : Jir.Program.t;
  opt : Rmi_core.Optimizer.t;
  meta : Rmi_serial.Class_meta.t;
  plans : (int, Rmi_core.Plan.t) Hashtbl.t;
}

let compile prog =
  let opt = Rmi_core.Optimizer.run prog in
  let meta = Rmi_serial.Class_meta.of_program prog in
  let plans = Hashtbl.create 16 in
  List.iter
    (fun (d : Rmi_core.Optimizer.decision) ->
      Hashtbl.replace plans d.plan.Rmi_core.Plan.callsite d.plan)
    opt.decisions;
  { prog; opt; meta; plans }

let run_timed compiled ?backend ?faults ~config ~mode ~n body =
  let metrics = Rmi_stats.Metrics.create () in
  let fabric =
    Rmi_runtime.Fabric.create ~mode ?backend ?faults ~n ~meta:compiled.meta ~config
      ~plans:compiled.plans ~metrics ()
  in
  Rmi_runtime.Fabric.run fabric (fun fabric ->
      let t0 = Rmi_net.Clock.now_us () in
      let result = body fabric in
      let wall = float_of_int (Rmi_net.Clock.now_us () - t0) *. 1e-6 in
      (result, wall, Rmi_stats.Metrics.snapshot metrics))

let place ~key ~machines = key mod machines
