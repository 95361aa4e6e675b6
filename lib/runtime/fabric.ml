type mode = Sync | Parallel
type backend = Sim | Sock

type t = {
  net : Rmi_net.Transport.t;
  plans : Rmi_core.Plan_store.t;
  sim : Rmi_net.Cluster.t option;
  nodes : Node.t array;
  fmode : mode;
  proc : bool;  (* process mode: only one machine lives in this OS process *)
  mutable pool : Dispatch_pool.t option;  (* serving machines 1..n-1 *)
}

(* the fabric's one plan registry, the caller's store or a source-less
   one, holding the caller's plans, and [n] nodes sharing it *)
let make_nodes ?plan_store net ~n ~meta ~config ~plans =
  let store =
    match plan_store with
    | Some store -> store
    | None -> Rmi_core.Plan_store.empty ()
  in
  Hashtbl.iter (fun _ p -> Rmi_core.Plan_store.install store p) plans;
  (store, Array.init n (fun id -> Node.create net ~id ~meta ~config ~plans:store))

(* stack the Reliable ARQ adapter over the raw transport when the
   config asks for it, then the batching layer over that when the
   config batches; a raw unbatched config leaves it bare.  [now] is the
   clock the ARQ's timers read, the idle count when absent (see
   [Rmi_net.Reliable.wrap]).  Every node of a fabric shares [config],
   so the layer is present exactly when the nodes buffer their sends. *)
let layer ?now ?params config lower =
  let net =
    match config.Config.transport with
    | Config.Raw -> lower
    | Config.Reliable -> Rmi_net.Reliable.wrap ?now ?params lower
  in
  if config.Config.batching then Rmi_net.Batching.wrap net else net

(* one Sync pump: serve every machine but [self] once, in id order, and
   say whether any of them served anything.  A top-level loop, so a
   waiting caller's every pump allocates nothing. *)
let rec pump nodes ~self i progress =
  if i >= Array.length nodes then progress
  else
    let served = i <> self && Node.serve_pending nodes.(i) in
    pump nodes ~self (i + 1) (served || progress)

let create ?(mode = Sync) ?(backend = Sim) ?faults ?chaos ?plan_store
    ?arq_params ~n ~meta ~config ~plans ~metrics () =
  (* a threaded fabric times its retransmits and heartbeats on the
     monotonic clock: its idle loops poll at the host's speed, so a
     count of polls is no measure of how late an ack is.  A Sync fabric
     keeps the idle-count clock, whose schedule is deterministic. *)
  let now =
    match mode with Sync -> None | Parallel -> Some Rmi_net.Clock.now_us
  in
  let layer = layer ?now ?params:arq_params in
  let net, sim =
    match backend with
    | Sim ->
        if chaos <> None then
          invalid_arg
            "Fabric.create: the chaos injector drives a socket transport; \
             use ?faults with the Sim backend";
        let cluster = Rmi_net.Cluster.create ~n metrics in
        Option.iter (Rmi_net.Cluster.set_faults cluster) faults;
        (layer config (Rmi_net.Sim.pack cluster), Some cluster)
    | Sock ->
        if faults <> None && chaos <> None then
          invalid_arg
            "Fabric.create: pass either ?faults or ?chaos over Sock, not \
             both (a chaos injector embeds its own fault schedule)";
        let lower = Rmi_net.Sock.create_loopback ?chaos ~n metrics in
        (* a bare schedule wraps into a connection-plan-free injector *)
        Option.iter (Rmi_net.Transport.set_faults lower) faults;
        (layer config lower, None)
  in
  let plans, nodes = make_nodes ?plan_store net ~n ~meta ~config ~plans in
  let t =
    { net; plans; sim; nodes; fmode = mode; proc = false; pool = None }
  in
  (if mode = Sync then
     (* a machine that waits pumps every other machine's queue *)
     Array.iteri
       (fun self node -> Node.set_pump node (fun () -> pump nodes ~self 0 false))
       nodes);
  t

let create_process ?listen ?chaos ?epoch ?plan_store ~self ~addrs ~meta
    ~config ~plans ~metrics () =
  (* the idle-count clock, as at Sync: a process calls [idle] only
     after an empty 2 ms receive slice, so its give-up budget spans at
     least ~0.5 s, and the microsecond timers have not been measured
     over TCP between processes *)
  let net =
    layer config
      (Rmi_net.Sock.create_process ?chaos ?epoch ?listen ~self ~addrs metrics)
  in
  let n = Array.length addrs in
  let plans, nodes = make_nodes ?plan_store net ~n ~meta ~config ~plans in
  { net; plans; sim = None; nodes; fmode = Parallel; proc = true; pool = None }

let mode t = t.fmode
let backend t = match t.sim with Some _ -> Sim | None -> Sock
let process_mode t = t.proc
let size t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Fabric.node: bad machine id %d" i);
  t.nodes.(i)

let metrics t = Rmi_net.Transport.metrics t.net
let plan_store t = t.plans
let net t = t.net

let cluster t =
  match t.sim with
  | Some c -> c
  | None ->
      invalid_arg
        "Fabric.cluster: not a Sim-backed fabric (use Fabric.net for the \
         transport-generic view)"

(* one worker per served node unless the config asks for fewer *)
let start t =
  let served = Array.length t.nodes - 1 in
  (* process mode hosts exactly one machine: there are no sibling
     nodes in this address space to serve *)
  if t.fmode = Parallel && (not t.proc) && t.pool = None && served > 0 then
    let cfg = Node.config t.nodes.(0) in
    t.pool <-
      Some
        (Dispatch_pool.create ~net:t.net
           ~nodes:(Array.sub t.nodes 1 served)
           ~domains:
             (if cfg.Config.domains > 0 then min cfg.Config.domains served
              else served)
           ~queue_depth:cfg.Config.queue_depth ())

let stop t =
  match t.pool with
  | None -> ()
  | Some pool ->
      t.pool <- None;
      for dest = 1 to Array.length t.nodes - 1 do
        Node.send_shutdown t.nodes.(0) ~dest
      done;
      Dispatch_pool.stop pool

let shutdown_net t = Rmi_net.Transport.shutdown t.net

let run t f =
  start t;
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
