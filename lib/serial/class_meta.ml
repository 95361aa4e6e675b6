open Rmi_wire

type field = { fname : string; fty : Jir.Types.ty }
type cls = { cid : Jir.Types.class_id; cname : string; fields : field array }
(* both directions of the wire-id mapping are resolved once, here, so
   the dynamic serializer's per-object lookups are array reads *)
type t = {
  classes : cls array;
  wire_ids : Typedesc.type_id array;  (* class id -> wire id *)
  by_wire : cls array;  (* wire id -> first class registered under it *)
}

let build classes =
  let registry = Typedesc.create () in
  let wire_ids = Array.map (fun c -> Typedesc.register registry c.cname) classes in
  let rec first id i = if wire_ids.(i) = id then classes.(i) else first id (i + 1) in
  let by_wire = Array.init (Typedesc.cardinal registry) (fun id -> first id 0) in
  { classes; wire_ids; by_wire }

let of_program (p : Jir.Program.t) =
  build
    (Array.map
       (fun (c : Jir.Program.class_decl) ->
         let flat = Jir.Program.all_fields p c.cid in
         {
           cid = c.cid;
           cname = c.cname;
           fields = Array.map (fun (fname, fty) -> { fname; fty }) flat;
         })
       p.classes)

let make specs =
  build
    (Array.of_list
       (List.mapi
          (fun cid (cname, fields) ->
            {
              cid;
              cname;
              fields =
                Array.of_list
                  (List.map (fun (fname, fty) -> { fname; fty }) fields);
            })
          specs))

let cls t cid =
  if cid < 0 || cid >= Array.length t.classes then
    invalid_arg (Printf.sprintf "Class_meta.cls: bad class id %d" cid);
  t.classes.(cid)

let num_classes t = Array.length t.classes
let find t name = Array.find_opt (fun c -> String.equal c.cname name) t.classes

let wire_id t cid =
  if cid < 0 || cid >= Array.length t.wire_ids then
    invalid_arg (Printf.sprintf "Class_meta.wire_id: bad class id %d" cid);
  t.wire_ids.(cid)

let of_wire_id t id =
  if id < 0 || id >= Array.length t.by_wire then
    raise (Msgbuf.Underflow (Printf.sprintf "unknown wire type id %d" id));
  t.by_wire.(id)

let rec write_ty t w = function
  | Jir.Types.Tbool -> Msgbuf.write_u8 w 0
  | Jir.Types.Tint -> Msgbuf.write_u8 w 1
  | Jir.Types.Tdouble -> Msgbuf.write_u8 w 2
  | Jir.Types.Tstring -> Msgbuf.write_u8 w 3
  | Jir.Types.Tobject cid ->
      Msgbuf.write_u8 w 4;
      Msgbuf.write_uvarint w (wire_id t cid)
  | Jir.Types.Tarray elem ->
      Msgbuf.write_u8 w 5;
      write_ty t w elem
  | Jir.Types.Tvoid -> invalid_arg "Class_meta.write_ty: void"

let rec read_ty t r =
  match Msgbuf.read_u8 r with
  | 0 -> Jir.Types.Tbool
  | 1 -> Jir.Types.Tint
  | 2 -> Jir.Types.Tdouble
  | 3 -> Jir.Types.Tstring
  | 4 -> Jir.Types.Tobject (of_wire_id t (Msgbuf.read_uvarint r)).cid
  | 5 -> Jir.Types.Tarray (read_ty t r)
  | n -> raise (Msgbuf.Underflow (Printf.sprintf "bad type code %d" n))
