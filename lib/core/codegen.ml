open Jir
module Int_set = Heap_analysis.Int_set

type config = { max_inline_depth : int; max_plan_size : int }

let default_config = { max_inline_depth = 8; max_plan_size = 256 }

(* Generation context: [defs] collects definitions for recursive steps
   ([Plan.S_ref]); [in_progress] tracks the node sets whose object step
   is currently being generated, so a recursive field (a linked list's
   [next]) becomes a reference to the enclosing definition instead of
   an infinite inline — the paper's direct recursive serializer call
   that needs no wire type information. *)
type genctx = {
  r : Heap_analysis.result;
  config : config;
  mutable rev_defs : Plan.step list;  (* reversed; placeholder = S_dyn *)
  mutable ndefs : int;
  mutable in_progress : (Int_set.t * int) list;
}

let node_types ctx set =
  Int_set.fold
    (fun n acc -> (Heap_graph.node (Heap_analysis.graph ctx.r) n).nty :: acc)
    set []

let uniform_type ctx set =
  match node_types ctx set with
  | [] -> None
  | t :: rest -> if List.for_all (Types.equal_ty t) rest then Some t else None

let alloc_def ctx =
  let d = ctx.ndefs in
  ctx.ndefs <- d + 1;
  ctx.rev_defs <- Plan.S_dyn :: ctx.rev_defs;
  d

let set_def ctx d step =
  ctx.rev_defs <-
    List.mapi
      (fun i s -> if ctx.ndefs - 1 - i = d then step else s)
      ctx.rev_defs

let rec step_of ctx ~depth ~path ty set =
  match ty with
  | Types.Tbool -> Plan.S_bool
  | Types.Tint -> Plan.S_int
  | Types.Tdouble -> Plan.S_double
  | Types.Tvoid -> Plan.S_null
  | Types.Tstring | Types.Tobject _ | Types.Tarray _ ->
      if Int_set.is_empty set then
        (* no allocation ever flows here: statically null — except for
           strings, which may be literals the analysis does not track *)
        (match ty with Types.Tstring -> Plan.S_string | _ -> Plan.S_null)
      else if not (Int_set.is_empty (Int_set.inter set path)) then
        (* recursive structure: refer back to the enclosing definition
           when it covers this set and agrees on the class *)
        recursive_step ctx set
      else if depth > ctx.config.max_inline_depth then Plan.S_dyn
      else begin
        match uniform_type ctx set with
        | None -> Plan.S_dyn
        | Some Types.Tstring -> Plan.S_string
        | Some (Types.Tobject cls) -> inline_object ctx ~depth ~path cls set
        | Some (Types.Tarray elem) -> inline_array ctx ~depth ~path elem set
        | Some (Types.Tvoid | Types.Tbool | Types.Tint | Types.Tdouble) ->
            (* a non-reference node type cannot occur in the graph *)
            Plan.S_dyn
      end

and recursive_step ctx set =
  let covering =
    List.find_opt (fun (s, _) -> Int_set.subset set s) ctx.in_progress
  in
  match covering with
  | Some (s, d) -> (
      match (uniform_type ctx set, uniform_type ctx s) with
      | Some (Types.Tobject c1), Some (Types.Tobject c2) when c1 = c2 ->
          Plan.S_ref d
      | _ -> Plan.S_dyn)
  | None -> Plan.S_dyn

and inline_object ctx ~depth ~path cls set =
  let prog = Heap_analysis.program ctx.r in
  let g = Heap_analysis.graph ctx.r in
  let d = alloc_def ctx in
  ctx.in_progress <- (set, d) :: ctx.in_progress;
  let path = Int_set.union path set in
  let flat = Program.all_fields prog cls in
  let fields =
    Array.mapi
      (fun i (_, fty) ->
        let tgts =
          Int_set.fold
            (fun n acc ->
              Int_set.union acc (Heap_graph.targets g n (Heap_graph.Field i)))
            set Int_set.empty
        in
        step_of ctx ~depth:(depth + 1) ~path fty tgts)
      flat
  in
  ctx.in_progress <- List.tl ctx.in_progress;
  let step = Plan.S_obj { cls; fields } in
  (* if a recursive reference was emitted, the definition must resolve *)
  let referenced =
    let rec refs = function
      | Plan.S_ref d' when d' = d -> true
      | Plan.S_obj { fields; _ } -> Array.exists refs fields
      | Plan.S_obj_array { elem } -> refs elem
      | _ -> false
    in
    Array.exists refs fields
  in
  set_def ctx d step;
  if referenced then Plan.S_ref d else step

and inline_array ctx ~depth ~path elem set =
  match elem with
  | Types.Tdouble -> Plan.S_double_array
  | Types.Tint -> Plan.S_int_array
  | Types.Tvoid -> Plan.S_dyn
  (* homogeneous double[][]: decode into flat row-major storage, one
     bounds check per matrix.  Ragged/null/shared rows are a runtime
     shape violation the writer detects, deoptimizing the position to
     S_dyn through the widen machinery. *)
  | Types.Tarray Types.Tdouble -> Plan.S_flat_array
  | Types.Tarray Types.Tint -> Plan.S_obj_array { elem = Plan.S_int_array }
  | Types.Tbool | Types.Tstring | Types.Tobject _ | Types.Tarray _ ->
      let g = Heap_analysis.graph ctx.r in
      let path = Int_set.union path set in
      let tgts =
        Int_set.fold
          (fun n acc -> Int_set.union acc (Heap_graph.targets g n Heap_graph.Elem))
          set Int_set.empty
      in
      Plan.S_obj_array
        { elem = step_of ctx ~depth:(depth + 1) ~path elem tgts }

let budgeted config step =
  if Plan.step_size step > config.max_plan_size then Plan.S_dyn else step

(* The flat encoding does not carry per-row handles, so it cannot
   preserve row identity through the runtime cycle table; on positions
   the cycle analysis could not prove acyclic, fall back to the boxed
   per-row encoding. *)
let rec deflatten = function
  | Plan.S_flat_array -> Plan.S_obj_array { elem = Plan.S_double_array }
  | Plan.S_obj { cls; fields } ->
      Plan.S_obj { cls; fields = Array.map deflatten fields }
  | Plan.S_obj_array { elem } -> Plan.S_obj_array { elem = deflatten elem }
  | ( Plan.S_bool | Plan.S_int | Plan.S_double | Plan.S_string | Plan.S_null
    | Plan.S_double_array | Plan.S_int_array | Plan.S_dyn | Plan.S_ref _ ) as s
    ->
      s

let make_ctx config r =
  { r; config; rev_defs = []; ndefs = 0; in_progress = [] }

let step_for ?(config = default_config) r ty set =
  let ctx = make_ctx config r in
  budgeted config (step_of ctx ~depth:0 ~path:Int_set.empty ty set)

let plan_for ?(config = default_config) r (cs : Heap_analysis.callsite_info) =
  let prog = Heap_analysis.program r in
  let callee = Program.method_decl prog cs.callee in
  let ctx = make_ctx config r in
  let args =
    Array.mapi
      (fun i set ->
        budgeted config
          (step_of ctx ~depth:0 ~path:Int_set.empty callee.params.(i) set))
      cs.arg_sets
  in
  let ret =
    if cs.has_dst then
      Some
        (budgeted config
           (step_of ctx ~depth:0 ~path:Int_set.empty callee.ret cs.ret_set))
    else None
  in
  let defs = Array.of_list (List.rev ctx.rev_defs) in
  let args_cyclic =
    match Cycle_analysis.args_verdict r cs with
    | Cycle_analysis.Acyclic -> false
    | Cycle_analysis.May_be_cyclic -> true
  in
  let ret_cyclic =
    cs.has_dst
    &&
    match Cycle_analysis.ret_verdict r cs with
    | Cycle_analysis.Acyclic -> false
    | Cycle_analysis.May_be_cyclic -> true
  in
  let reuse_args =
    Array.map Escape_analysis.is_reusable (Escape_analysis.arg_verdicts r cs)
  in
  let reuse_ret =
    cs.has_dst && Escape_analysis.is_reusable (Escape_analysis.ret_verdict r cs)
  in
  (* every argument provably does not outlive the call: the callee may
     reclaim the whole decoded argument graph after replying *)
  let non_escaping =
    Array.length reuse_args > 0 && Array.for_all Fun.id reuse_args
  in
  let args = if args_cyclic then Array.map deflatten args else args in
  let ret = if ret_cyclic then Option.map deflatten ret else ret in
  let defs =
    if args_cyclic || ret_cyclic then Array.map deflatten defs else defs
  in
  {
    Plan.callsite = cs.cs_site;
    defs;
    args;
    ret;
    cycle_args = args_cyclic;
    cycle_ret = ret_cyclic;
    reuse_args;
    reuse_ret;
    non_escaping;
    version = 1;
    polluted = false;
  }
