(* The closed-loop driver under every differential gate: build a
   fabric, export each workload's handler on the servers, issue windows
   of asynchronous calls from machine 0 and fold the replies into a
   checksum and a digest.  A gate is a list of specs plus its checks;
   in lib/harness only this module creates fabrics or issues calls. *)

module Config = Rmi_runtime.Config
module Fabric = Rmi_runtime.Fabric
module Node = Rmi_runtime.Node
module Remote_ref = Rmi_runtime.Remote_ref
module Metrics = Rmi_stats.Metrics
module Clock = Rmi_net.Clock
module Value = Rmi_serial.Value

(** One RMI the driver repeats.  Workload [k] of a spec is method and
    callsite [k + 1] of object 0 on every server; its plan is installed
    for that callsite. *)
type workload = {
  name : string;
  meta : Rmi_serial.Class_meta.t;  (** the same for every workload of a spec *)
  plan : Rmi_core.Plan.t option;
  handler : Value.t array -> Value.t option;
  args : int -> Value.t array;  (** call [i]'s arguments *)
  fold : Value.t option -> float;  (** a reply's checksum term *)
}

type faults =
  | No_faults
  | Schedule of Rmi_net.Fault_sim.t  (** a seeded schedule on the links *)
  | Injector of Rmi_net.Chaos.t  (** a chaos injector over sockets *)

type fabric =
  | Local of {
      mode : Fabric.mode;
      backend : Fabric.backend;
      servers : int;  (** machine 0 calls machines [1 .. servers] *)
      faults : faults;
    }
  | Process of {
      self : int;
      addrs : (string * int) array;
      epoch : int option;
      listen : (string * int) option;
    }
      (** machine [self] of a cluster over OS processes
          ({!Fabric.create_process}); a server serves every workload
          until machine 0 shuts it down *)

(** What a result's digest is the MD5 of.  A reply's text is its
    structural rendering, ["none"] for no value and ["fail"] for a call
    that raised [Rpc_timeout] or [Peer_down]. *)
type source =
  | Frames
      (** every frame leaving the transmit path, chained; the hook runs
          before fault injection, so every run of a seed sees the same
          stream *)
  | Replies of char  (** each reply's text, then the separator *)
  | Numbered  (** ["%d:%s;"]: each call's 1-based number and reply text *)

(** What a result's wall time and minor words cover. *)
type span =
  | Calls  (** the measured calls, after the warmup *)
  | Whole_run  (** the worker pool's start, every call and its stop *)

type spec = {
  fabric : fabric;
  config : Config.t;
  workloads : workload list;  (** run one after the other *)
  warmup : int;  (** unmeasured calls before the measured ones *)
  window : int;  (** calls issued before the driver awaits them *)
  calls : int;  (** measured calls, round-robin over the servers *)
  digest_of : source;
  timed : span;
  snapshot_every : int option;
      (** snapshot the counters every [k] calls and after the last *)
}

type result = {
  counters : Metrics.snapshot;  (** the whole run's, once the fabric stopped *)
  sum : float;  (** the fold of the measured calls' replies *)
  failed : int;  (** measured calls that raised [Rpc_timeout] or [Peer_down] *)
  digest : string;  (** hex, over every call; ["-"] when no frame left *)
  minor : float;  (** GC minor words per measured call over [timed] *)
  wall : float;  (** seconds of [timed] *)
  latencies : int array;
      (** per measured call, microseconds from [call_async] to the
          return of [await], sorted *)
  snapshots : Metrics.snapshot list;
}

(* structural rendering for the reply digest: [Value.pp] prints global
   allocation ids, which differ between runs even for equal values *)
let rec render buf v =
  let add = Buffer.add_string buf in
  let items opening f a =
    add opening;
    Array.iter (fun x -> f x; Buffer.add_char buf ';') a
  in
  match v with
  | Value.Null -> add "null"
  | Value.Bool b -> add (string_of_bool b)
  | Value.Int i -> add (string_of_int i)
  | Value.Double f -> add (string_of_float f)
  | Value.Str s -> add s
  | Value.Obj o ->
      items (Printf.sprintf "obj(%d){" o.Value.cls) (render buf) o.Value.fields;
      add "}"
  | Value.Darr a ->
      items "d[" (fun x -> add (string_of_float x)) a.Value.d;
      add "]"
  | Value.Iarr a ->
      items "i[" (fun x -> add (string_of_int x)) a.Value.ia;
      add "]"
  | Value.Rarr a ->
      items "r[" (render buf) a.Value.ra;
      add "]"

(* seconds since [t0], a {!Clock.now_us} reading *)
let elapsed_s t0 = float_of_int (Clock.now_us () - t0) *. 1e-6

(* calls [first .. first + calls - 1] in bursts of [window]: [issue i]
   starts call [i], [settle i future] consumes each one in issue order *)
let windows ~first ~calls ~window issue settle =
  let i = ref first in
  while !i < first + calls do
    let k = min window (first + calls - !i) in
    let futures = List.init k (fun j -> issue (!i + j)) in
    List.iteri (fun j f -> settle (!i + j) f) futures;
    i := !i + k
  done

(* machine 0 runs workload [k] (method and callsite [k + 1]): [warmup]
   calls, then the [calls] measured ones, call [i] to [dests.(i mod
   servers)].  Nothing on the path of a call allocates beyond what the
   RMI itself does, its argument array and the fold, so [minor] measures
   the runtime. *)
let drive spec metrics frames caller dests k w =
  let site = k + 1 and servers = Array.length dests in
  let total = spec.warmup + spec.calls in
  let buf = Buffer.create 1024 in
  let sum = ref 0.0 and failed = ref 0 and snapshots = ref [] in
  let stamps = Array.make total 0 in
  let texts = spec.digest_of <> Frames in
  let sep = match spec.digest_of with Replies c -> c | Numbered | Frames -> ';' in
  (* [None]: the call failed *)
  let note i reply =
    if spec.digest_of = Numbered then Printf.bprintf buf "%d:" (i + 1);
    (match reply with
    | None -> Buffer.add_string buf "fail"
    | Some None -> Buffer.add_string buf "none"
    | Some (Some v) -> render buf v);
    Buffer.add_char buf sep
  in
  let issue i =
    stamps.(i) <- Clock.now_us ();
    Node.call_async caller ~dest:dests.(i mod servers) ~meth:site ~callsite:site
      ~has_ret:true (w.args i)
  in
  let settle i f =
    (match Node.Future.await f with
    | r ->
        stamps.(i) <- Clock.now_us () - stamps.(i);
        sum := !sum +. w.fold r;
        if texts then note i (Some r)
    | exception (Node.Rpc_timeout _ | Node.Peer_down _) ->
        stamps.(i) <- Clock.now_us () - stamps.(i);
        incr failed;
        if texts then note i None);
    match spec.snapshot_every with
    | Some every when (i + 1) mod every = 0 || i + 1 = total ->
        snapshots := Metrics.snapshot metrics :: !snapshots
    | _ -> ()
  in
  frames := "";
  windows ~first:0 ~calls:spec.warmup ~window:spec.window issue settle;
  sum := 0.0;
  failed := 0;
  let minor0 = Gc.minor_words () and t0 = Clock.now_us () in
  windows ~first:spec.warmup ~calls:spec.calls ~window:spec.window issue settle;
  let minor = (Gc.minor_words () -. minor0) /. float_of_int spec.calls in
  let wall = elapsed_s t0 in
  let latencies = Array.sub stamps spec.warmup spec.calls in
  Array.sort compare latencies;
  {
    counters = Metrics.zero (* the run's, set by [run] *);
    sum = !sum;
    failed = !failed;
    digest =
      (if texts then Digest.to_hex (Digest.string (Buffer.contents buf))
       else if String.length !frames = 0 then "-"
       else Digest.to_hex !frames);
    minor;
    wall;
    latencies;
    snapshots = List.rev !snapshots;
  }

let run spec =
  if
    spec.calls < 1 || spec.window < 1
    || Option.fold ~none:false ~some:(fun k -> k < 1) spec.snapshot_every
  then invalid_arg "Driver.run: calls, window and snapshot interval must be >= 1";
  let meta =
    match spec.workloads with
    | w :: rest when List.for_all (fun w' -> w'.meta == w.meta) rest -> w.meta
    | _ -> invalid_arg "Driver.run: workloads must share one class meta"
  in
  let metrics = Metrics.create () and plans = Hashtbl.create 4 in
  List.iteri
    (fun k w -> Option.iter (Hashtbl.replace plans (k + 1)) w.plan)
    spec.workloads;
  let fabric, servers, self =
    match spec.fabric with
    | Local { mode; backend; servers; faults } ->
        let faults, chaos =
          match faults with
          | No_faults -> (None, None)
          | Schedule s -> (Some s, None)
          | Injector c -> (None, Some c)
        in
        ( Fabric.create ~mode ~backend ?faults ?chaos ~n:(servers + 1) ~meta
            ~config:spec.config ~plans ~metrics (),
          servers,
          0 )
    | Process { self; addrs; epoch; listen } ->
        ( Fabric.create_process ?epoch ?listen ~self ~addrs ~meta
            ~config:spec.config ~plans ~metrics (),
          Array.length addrs - 1,
          self )
  in
  let frames = ref "" in
  if spec.digest_of = Frames then
    Rmi_net.Transport.set_fault_hook (Fabric.net fabric)
      (fun ~src:_ ~dest:_ frame ->
        frames := Digest.string (!frames ^ Digest.bytes frame);
        [ frame ]);
  let export m =
    List.iteri
      (fun k w ->
        Node.export (Fabric.node fabric m) ~obj:0 ~meth:(k + 1) ~has_ret:true
          w.handler)
      spec.workloads
  in
  let results =
    if self > 0 then begin
      (* a server process serves until machine 0 shuts it down *)
      export self;
      Node.serve_loop (Fabric.node fabric self);
      []
    end
    else begin
      let proc = Fabric.process_mode fabric in
      if not proc then
        for m = 1 to servers do
          export m
        done;
      let caller = Fabric.node fabric 0 in
      let dests =
        Array.init servers (fun s -> Remote_ref.make ~machine:(s + 1) ~obj:0)
      in
      let minor0 = Gc.minor_words () and t0 = Clock.now_us () in
      let results =
        Fabric.run fabric (fun _ ->
            List.mapi (drive spec metrics frames caller dests) spec.workloads)
      in
      let minor = (Gc.minor_words () -. minor0) /. float_of_int spec.calls in
      let wall = elapsed_s t0 in
      if proc then
        for dest = 1 to servers do
          Node.send_shutdown caller ~dest
        done;
      match spec.timed with
      | Calls -> results
      | Whole_run -> List.map (fun r -> { r with minor; wall }) results
    end
  in
  Fabric.shutdown_net fabric;
  let counters = Metrics.snapshot metrics in
  List.map (fun r -> { r with counters }) results
