type step =
  | S_bool
  | S_int
  | S_double
  | S_string
  | S_null
  | S_obj of { cls : Jir.Types.class_id; fields : step array }
  | S_double_array
  | S_int_array
  | S_obj_array of { elem : step }
  | S_flat_array
  | S_dyn
  | S_ref of int

type t = {
  callsite : Jir.Types.site;
  defs : step array;
  args : step array;
  ret : step option;
  cycle_args : bool;
  cycle_ret : bool;
  reuse_args : bool array;
  reuse_ret : bool;
  non_escaping : bool;
  version : int;
  polluted : bool;
}

let generic_version = 0

let generic ~callsite ~nargs ~has_ret =
  {
    callsite;
    defs = [||];
    args = Array.make nargs S_dyn;
    ret = (if has_ret then Some S_dyn else None);
    cycle_args = true;
    cycle_ret = true;
    reuse_args = Array.make nargs false;
    reuse_ret = false;
    non_escaping = false;
    version = generic_version;
    polluted = false;
  }

type position = [ `Arg of int | `Ret ]

let pp_position ppf = function
  | `Arg i -> Format.fprintf ppf "arg%d" i
  | `Ret -> Format.pp_print_string ppf "ret"

let widen t (pos : position) =
  (* a widened position loses its static promises entirely: dynamic
     step, cycle table back on, reuse off — S_dyn never raises
     Type_confusion, so widening always makes forward progress *)
  match pos with
  | `Arg i ->
      if i < 0 || i >= Array.length t.args then
        invalid_arg "Plan.widen: argument index out of range";
      let args = Array.copy t.args in
      args.(i) <- S_dyn;
      let reuse_args = Array.copy t.reuse_args in
      reuse_args.(i) <- false;
      {
        t with
        args;
        reuse_args;
        cycle_args = true;
        version = t.version + 1;
        polluted = true;
      }
  | `Ret ->
      (match t.ret with
      | None -> invalid_arg "Plan.widen: no return position"
      | Some _ ->
          {
            t with
            ret = Some S_dyn;
            cycle_ret = true;
            reuse_ret = false;
            version = t.version + 1;
            polluted = true;
          })

let rec step_size = function
  | S_bool | S_int | S_double | S_string | S_null | S_double_array | S_int_array
  | S_dyn | S_ref _ ->
      1
  (* a flat step covers both levels of the matrix it fuses, so it costs
     what the S_obj_array/S_*_array pair it replaces would — inlining
     budgets are unchanged by flattening *)
  | S_flat_array -> 2
  | S_obj { fields; _ } ->
      Array.fold_left (fun acc s -> acc + step_size s) 1 fields
  | S_obj_array { elem } -> 1 + step_size elem

let size t =
  let args = Array.fold_left (fun acc s -> acc + step_size s) 0 t.args in
  match t.ret with Some r -> args + step_size r | None -> args

let rec pp_step ppf = function
  | S_bool -> Format.pp_print_string ppf "bool"
  | S_int -> Format.pp_print_string ppf "int"
  | S_double -> Format.pp_print_string ppf "double"
  | S_string -> Format.pp_print_string ppf "string"
  | S_null -> Format.pp_print_string ppf "null"
  | S_obj { cls; fields } ->
      Format.fprintf ppf "obj#%d{%a}" cls
        (Format.pp_print_seq
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_step)
        (Array.to_seq fields)
  | S_double_array -> Format.pp_print_string ppf "double[]"
  | S_int_array -> Format.pp_print_string ppf "int[]"
  | S_obj_array { elem } -> Format.fprintf ppf "%a[]" pp_step elem
  | S_flat_array -> Format.pp_print_string ppf "flat double[][]"
  | S_dyn -> Format.pp_print_string ppf "dyn"
  | S_ref d -> Format.fprintf ppf "rec#%d" d

let pp ppf t =
  Format.fprintf ppf
    "@[<v2>plan@%d (v%d%s):@ args=[%a]@ ret=%a@ cycle_args=%b cycle_ret=%b \
     reuse_args=[%s] reuse_ret=%b non_escaping=%b@]"
    t.callsite t.version
    (if t.polluted then ", polluted" else "")
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_step)
    (Array.to_seq t.args)
    (fun ppf -> function
      | Some s -> pp_step ppf s
      | None -> Format.pp_print_string ppf "<ack>")
    t.ret t.cycle_args t.cycle_ret
    (String.concat ";"
       (Array.to_list (Array.map string_of_bool t.reuse_args)))
    t.reuse_ret t.non_escaping
