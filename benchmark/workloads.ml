(* The four workloads, each built from one of the paper's call shapes.

   Every input is generated here from the seed; the runtime only ever
   sees the generated values.  Each call carries its call index (in a
   field the workload owns) so a handler knows which call it serves,
   and every workload verifies its results: the server checks what it
   received, the client checks what came back, and a per-trial check
   runs after each trial. *)

module Config = Rmi.Config
module Fabric = Rmi.Fabric
module Node = Rmi.Node
module Value = Rmi.Value
module Remote_ref = Rmi.Remote_ref
module Class_meta = Rmi.Internals.Class_meta
module App = Rmi_apps.App_common
module Isa = Rmi_apps.Superopt.Isa

(* the client's verdict on what call [k] returned *)
type reply =
  | Right
  | Other_call  (* a whole, valid reply, but the one to another call *)
  | Wrong

type inputs = {
  site : int;
  meth : int;
  has_ret : bool;
  dest : int -> Remote_ref.t;  (* target of call [k] *)
  args : int -> Value.t array;  (* arguments of call [k], index stamped in *)
  check : int -> Value.t option -> reply;  (* client-side check of call [k] *)
  export : Fabric.t -> Probe.t option -> unit;  (* handlers, per fabric *)
  trial_ok : unit -> bool;  (* end-of-trial check; resets per-trial state *)
  sample_args : Value.t array;  (* call 0's argument, for the replays *)
  sample_ret : Value.t option;  (* its return value *)
}

type t = {
  name : string;
  backend : Fabric.backend;
  mode : Fabric.mode;
  config : Config.t;
  window : int;  (* calls kept outstanding by the closed loop *)
  lossy : bool;  (* seeded Fault_sim.default_lossy on the links *)
  compiled : unit -> App.compiled;
  prepare : seed:int -> App.compiled -> inputs;
}

let cls (c : App.compiled) name =
  match Class_meta.find c.meta name with
  | Some k -> k.Class_meta.cid
  | None -> failwith ("benchmark: no class " ^ name)

let meth (c : App.compiled) name = Jfront.Lower.method_named c.prog name
let on_machine m = Remote_ref.make ~machine:m ~obj:0
let server = on_machine 1

let export_on fabric machine ~meth ~has_ret probe ~id f =
  let h = match probe with None -> f | Some p -> Probe.handler p ~id f in
  Node.export (Fabric.node fabric machine) ~obj:0 ~meth ~has_ret h

let int_field = function Value.Int i -> i | _ -> failwith "benchmark: expected int"
let obj = function Value.Obj o -> o | _ -> failwith "benchmark: expected object"
let iarr = function Value.Iarr a -> a.Value.ia | _ -> failwith "benchmark: expected int[]"
let no_result _ v = if Option.is_none v then Right else Wrong

(* ------------------------------------------------------------------ *)
(* chain-rtt: Table 1's 100-cell linked list                           *)
(* ------------------------------------------------------------------ *)

let chain_len = 100

let chain_prepare ~seed:_ (c : App.compiled) =
  let cell = cls c "LinkedList" in
  let head =
    let rec go acc k =
      if k = 0 then acc
      else
        let o = Value.new_obj ~cls:cell ~nfields:1 in
        o.Value.fields.(0) <- acc;
        go (Value.Obj o) (k - 1)
    in
    go Value.Null chain_len
  in
  let rec length acc = function
    | Value.Null -> acc
    | Value.Obj o -> length (acc + 1) o.Value.fields.(0)
    | _ -> failwith "chain-rtt: malformed list"
  in
  (* one call outstanding at a time: the call in flight is the one
     being served *)
  let current = ref 0 in
  let args = [| head |] in
  let meth = meth c "Foo.send" in
  {
    site = Rmi_apps.Linked_list.callsite ();
    meth;
    has_ret = false;
    dest = (fun _ -> server);
    args =
      (fun k ->
        current := k;
        args);
    check = no_result;
    export =
      (fun fabric probe ->
        export_on fabric 1 ~meth ~has_ret:false probe
          ~id:(fun _ -> !current)
          (fun args ->
            if length 0 args.(0) <> chain_len then
              failwith "chain-rtt: list arrived with the wrong length";
            None));
    trial_ok = (fun () -> true);
    sample_args = [| head |];
    sample_ret = None;
  }

let chain_rtt =
  {
    name = "chain-rtt";
    backend = Fabric.Sim;
    mode = Fabric.Sync;
    config = Config.with_reliable Config.site_cycle;
    window = 1;
    lossy = false;
    compiled = Rmi_apps.Linked_list.compiled;
    prepare = chain_prepare;
  }

(* ------------------------------------------------------------------ *)
(* matrix-sock: Table 2's 16x16 double[][] over loopback TCP           *)
(* ------------------------------------------------------------------ *)

let dim = 16

(* row-major sum skipping cell (0,0), which carries the call index;
   the same order on both sides makes the float comparison exact *)
let matrix_sum outer =
  let s = ref 0.0 in
  Array.iteri
    (fun i row ->
      match row with
      | Value.Darr r ->
          Array.iteri (fun j x -> if i > 0 || j > 0 then s := !s +. x) r.Value.d
      | _ -> failwith "matrix-sock: malformed row")
    outer;
  !s

let matrix_prepare ~seed (c : App.compiled) =
  let rng = Random.State.make [| seed; 2 |] in
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) dim in
  for i = 0 to dim - 1 do
    let row = Value.new_darr dim in
    Array.iteri (fun j _ -> row.Value.d.(j) <- Random.State.float rng 1.0) row.Value.d;
    outer.Value.ra.(i) <- Value.Darr row
  done;
  let row0 = match outer.Value.ra.(0) with Value.Darr r -> r.Value.d | _ -> assert false in
  let expected = matrix_sum outer.Value.ra in
  let matrix = Value.Rarr outer in
  let args = [| matrix |] in
  let rows = function
    | Value.Rarr o -> o.Value.ra
    | _ -> failwith "matrix-sock: malformed matrix"
  in
  let meth = meth c "ArrayBench.send" in
  {
    site = Rmi_apps.Array_bench.callsite ();
    meth;
    has_ret = false;
    dest = (fun _ -> server);
    args =
      (fun k ->
        row0.(0) <- float_of_int k;
        args);
    check = no_result;
    export =
      (fun fabric probe ->
        export_on fabric 1 ~meth ~has_ret:false probe
          ~id:(fun args ->
            match (rows args.(0)).(0) with
            | Value.Darr r -> int_of_float r.Value.d.(0)
            | _ -> -1)
          (fun args ->
            if matrix_sum (rows args.(0)) <> expected then
              failwith "matrix-sock: matrix arrived with the wrong sum";
            None));
    trial_ok = (fun () -> true);
    sample_args = [| matrix |];
    sample_ret = None;
  }

let matrix_sock =
  {
    name = "matrix-sock";
    backend = Fabric.Sock;
    mode = Fabric.Sync;
    config = Config.site_reuse_cycle;
    window = 16;
    lossy = false;
    compiled = Rmi_apps.Array_bench.compiled;
    prepare = matrix_prepare;
  }

(* ------------------------------------------------------------------ *)
(* web-lossy-pool: Tables 7/8's page server, lossy links, pool domain  *)
(* ------------------------------------------------------------------ *)

let pages = 64
let page_ints = 256
let url_ints = 32
let url_seq = 4096

let web_prepare ~seed (c : App.compiled) =
  let rng = Random.State.make [| seed; 3 |] in
  let url_cls = cls c "Url" and page_cls = cls c "Page" in
  let wrap cls data =
    let o = Value.new_obj ~cls ~nfields:1 in
    o.Value.fields.(0) <- Value.Iarr data;
    Value.Obj o
  in
  (* page p: word 0 is p, the rest seeded; its sum is the checksum *)
  let page_data =
    Array.init pages (fun p ->
        Array.init page_ints (fun i -> if i = 0 then p else Random.State.bits rng))
  in
  let page_sum = Array.map (Array.fold_left ( + ) 0) page_data in
  let page_v =
    Array.map
      (fun d ->
        let a = Value.new_iarr page_ints in
        Array.blit d 0 a.Value.ia 0 page_ints;
        wrap page_cls a)
      page_data
  in
  (* url p: word 0 is p, word 1 the call index, the rest seeded *)
  let url_a =
    Array.init pages (fun p ->
        let a = Value.new_iarr url_ints in
        Array.iteri (fun i _ -> a.Value.ia.(i) <- Random.State.bits rng) a.Value.ia;
        a.Value.ia.(0) <- p;
        a)
  in
  let url_tail = Array.map (fun a -> Array.sub a.Value.ia 2 (url_ints - 2)) url_a in
  let url_v = Array.map (wrap url_cls) url_a in
  let url_args = Array.map (fun u -> [| u |]) url_v in
  let ids = Array.init url_seq (fun _ -> Random.State.int rng pages) in
  let meth = meth c "Slave.get_page" in
  let url_words args = iarr (obj args.(0)).Value.fields.(0) in
  {
    site = Rmi_apps.Webserver.callsite ();
    meth;
    has_ret = true;
    dest = (fun _ -> server);
    args =
      (fun k ->
        let p = ids.(k mod url_seq) in
        url_a.(p).Value.ia.(1) <- k;
        url_args.(p));
    (* With return-value reuse, every reply decodes into one recycled
       Page, so by the time a window's future is awaited its value may
       already hold a later reply.  What must hold is that it is a
       whole, uncorrupted page (its id and checksum agree); a whole page
       other than the one requested is counted, not failed. *)
    check =
      (fun k v ->
        match v with
        | Some (Value.Obj o) -> (
            match o.Value.fields.(0) with
            | Value.Iarr d ->
                let d = d.Value.ia in
                if
                  Array.length d = page_ints
                  && d.(0) >= 0 && d.(0) < pages
                  && Array.fold_left ( + ) 0 d = page_sum.(d.(0))
                then if d.(0) = ids.(k mod url_seq) then Right else Other_call
                else Wrong
            | _ -> Wrong)
        | _ -> Wrong);
    export =
      (fun fabric probe ->
        export_on fabric 1 ~meth ~has_ret:true probe
          ~id:(fun args -> (url_words args).(1))
          (fun args ->
            let u = url_words args in
            let p = u.(0) in
            if
              Array.length u <> url_ints
              || p < 0 || p >= pages
              || Array.sub u 2 (url_ints - 2) <> url_tail.(p)
            then failwith "web-lossy-pool: url arrived corrupted";
            Some page_v.(p)));
    trial_ok = (fun () -> true);
    sample_args = [| url_v.(ids.(0)) |];
    sample_ret = Some page_v.(ids.(0));
  }

let web_lossy_pool =
  {
    name = "web-lossy-pool";
    backend = Fabric.Sim;
    mode = Fabric.Parallel;
    config =
      Config.with_domains 1
        (Config.with_batching (Config.with_reliable Config.site_reuse_cycle));
    (* At 16 outstanding calls the run flips, a quarter second at a
       time, between ~2 retransmits per call and a retransmit storm of
       ~18 that triples latency, so a run's p50 depended on how many
       storms it met (see README).  8 keeps batches of several replies
       without the storms. *)
    window = 8;
    lossy = true;
    compiled = Rmi_apps.Webserver.compiled;
    prepare = web_prepare;
  }

(* ------------------------------------------------------------------ *)
(* superopt-mix: Tables 5/6's candidate programs, half of them local   *)
(* ------------------------------------------------------------------ *)

let programs = 4096
let testers = 2
let ring_slots = 64

let opcodes =
  Isa.[| Add; Sub; And; Or; Xor; Shl; Shr; Mov; Neg; Not; Loadi; Ld; St |]

let superopt_prepare ~seed (c : App.compiled) =
  let rng = Random.State.make [| seed; 5 |] in
  let operand_cls = cls c "Operand" and insn_cls = cls c "Insn" and prog_cls = cls c "Prog" in
  let progs = Array.of_seq (Seq.take programs (Isa.enumerate ~max_len:3)) in
  let order = Array.init programs Fun.id in
  for i = programs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let target = Rmi_apps.Superopt.default_params.target in
  let expected = Array.map (fun p -> Isa.equivalent p target) progs in
  let to_value (prog : Isa.prog) =
    let operand v =
      let o = Value.new_obj ~cls:operand_cls ~nfields:1 in
      o.Value.fields.(0) <- Value.Int v;
      Value.Obj o
    in
    let insns = Value.new_rarr (Jir.Types.Tobject insn_cls) (Array.length prog) in
    Array.iteri
      (fun i (ins : Isa.insn) ->
        let o = Value.new_obj ~cls:insn_cls ~nfields:4 in
        let op = ref 0 in
        Array.iteri (fun k x -> if x = ins.Isa.op then op := k) opcodes;
        o.Value.fields.(0) <- Value.Int !op;
        o.Value.fields.(1) <- operand ins.Isa.rd;
        o.Value.fields.(2) <- operand ins.Isa.rs1;
        o.Value.fields.(3) <- operand ins.Isa.rs2;
        insns.Value.ra.(i) <- Value.Obj o)
      prog;
    let p = Value.new_obj ~cls:prog_cls ~nfields:2 in
    p.Value.fields.(0) <- Value.Int 0;
    p.Value.fields.(1) <- Value.Rarr insns;
    p
  in
  let of_value v : int * Isa.prog =
    let p = obj v in
    let operand v = int_field (obj v).Value.fields.(0) in
    match p.Value.fields.(1) with
    | Value.Rarr insns ->
        ( int_field p.Value.fields.(0),
          Array.map
            (fun v ->
              let f = (obj v).Value.fields in
              {
                Isa.op = opcodes.(int_field f.(0));
                rd = operand f.(1);
                rs1 = operand f.(2);
                rs2 = operand f.(3);
              })
            insns.Value.ra )
    | _ -> failwith "superopt-mix: malformed program"
  in
  let values = Array.map to_value progs in
  let args = Array.map (fun v -> [| Value.Obj v |]) values in
  let dests = Array.init testers on_machine in
  let offered = Array.make programs false in
  let matched = Array.make programs false in
  let meth = meth c "Tester.accept" in
  let accept ring pos args =
    let k, prog = of_value args.(0) in
    let j = order.(k mod programs) in
    if prog <> progs.(j) then failwith "superopt-mix: program arrived corrupted";
    let m = Isa.equivalent prog target in
    if m <> expected.(j) then failwith "superopt-mix: equivalence verdict differs";
    if m then matched.(j) <- true;
    (* testers keep their candidates: the escape that defeats reuse *)
    ring.(!pos) <- args.(0);
    pos := (!pos + 1) mod ring_slots;
    None
  in
  {
    site = fst (Rmi_apps.Superopt.callsites ());
    meth;
    has_ret = false;
    dest = (fun k -> dests.(k mod testers));
    args =
      (fun k ->
        let j = order.(k mod programs) in
        offered.(j) <- true;
        values.(j).Value.fields.(0) <- Value.Int k;
        args.(j));
    check = no_result;
    export =
      (fun fabric probe ->
        for m = 0 to testers - 1 do
          let ring = Array.make ring_slots Value.Null and pos = ref 0 in
          export_on fabric m ~meth ~has_ret:false probe
            ~id:(fun args -> int_field (obj args.(0)).Value.fields.(0))
            (accept ring pos)
        done);
    trial_ok =
      (fun () ->
        let ok = ref true in
        for j = 0 to programs - 1 do
          if matched.(j) <> (expected.(j) && offered.(j)) then ok := false
        done;
        Array.fill offered 0 programs false;
        Array.fill matched 0 programs false;
        !ok);
    sample_args = args.(order.(0));
    sample_ret = None;
  }

let superopt_mix =
  {
    name = "superopt-mix";
    backend = Fabric.Sim;
    mode = Fabric.Sync;
    config = Config.site_reuse_cycle;
    window = 16;
    lossy = false;
    compiled = Rmi_apps.Superopt.compiled;
    prepare = superopt_prepare;
  }

let all = [ chain_rtt; matrix_sock; web_lossy_pool; superopt_mix ]
let find name = List.find_opt (fun w -> w.name = name) all
