type cell =
  | Str of string
  | Int of int
  | Float of int * float
  | Bool of bool
  | Ints of int list

type verdict = Pass | Fail | Unenforced of string

type field =
  | Value of string * cell
  | Check of string * cell * verdict

type table = { columns : string list; rows : cell list list }

type t = {
  title : string;
  fields : field list;
  table : table;
  extra : (string * table) list;
  notes : string list;
}

let check name ok = Check (name, Bool ok, if ok then Pass else Fail)
let key = function Value (k, _) | Check (k, _, _) -> k
let cell_of = function Value (_, c) | Check (_, c, _) -> c

let checks t =
  List.filter_map
    (function Check (k, _, v) -> Some (k, v) | Value _ -> None)
    t.fields

let failed t =
  List.filter_map (fun (k, v) -> if v = Fail then Some k else None) (checks t)

let ok t = failed t = []

let text = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float (digits, x) -> Printf.sprintf "%.*f" digits x
  | Bool b -> string_of_bool b
  | Ints l -> "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

let json = function Str s -> Printf.sprintf "%S" s | c -> text c

let render t =
  let table tb =
    (* text columns flush left, numbers right *)
    let aligns =
      match tb.rows with
      | row :: _ ->
          List.map (function Str _ -> Rmi_stats.Ascii_table.Left | _ -> Right) row
      | [] -> []
    in
    Rmi_stats.Ascii_table.render ~headers:tb.columns ~aligns
      (List.map (List.map text) tb.rows)
  in
  let width =
    List.fold_left (fun w f -> max w (String.length (key f))) 0 t.fields
  in
  let line f =
    let tag =
      match f with
      | Value _ -> ""
      | Check (_, _, Pass) -> "  [pass]"
      | Check (_, _, Fail) -> "  [FAIL]"
      | Check (_, _, Unenforced why) -> "  [not enforced: " ^ why ^ "]"
    in
    Printf.sprintf "%-*s %s%s" (width + 1) (key f ^ ":") (text (cell_of f)) tag
  in
  let verdict =
    match (checks t, failed t) with
    | [], _ -> []
    | _, [] -> [ "gate: PASS" ]
    | _, names -> [ "gate: FAIL (" ^ String.concat ", " names ^ ")" ]
  in
  String.concat "\n"
    (t.title :: table t.table
     :: List.map (fun (name, tb) -> name ^ ":\n" ^ table tb) t.extra
    @ List.map line t.fields @ t.notes @ verdict)

let to_json t =
  let pair k c = Printf.sprintf "%S: %s" k (json c) in
  let rows (name, tb) =
    Printf.sprintf "  %S: [\n%s\n  ]" name
      (String.concat ",\n"
         (List.map
            (fun row ->
              "    {" ^ String.concat ", " (List.map2 pair tb.columns row) ^ "}")
            tb.rows))
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun s -> "  " ^ s)
         (pair "title" (Str t.title)
         :: List.map (fun f -> pair (key f) (cell_of f)) t.fields)
      @ List.map rows (("rows", t.table) :: t.extra))
  ^ "\n}\n"

let find t k = List.find (fun f -> String.equal (key f) k) t.fields
let value t k = cell_of (find t k)

let verdict t k =
  match find t k with Check (_, _, v) -> v | Value _ -> raise Not_found

let column t name =
  let rec index i = function
    | [] -> raise Not_found
    | c :: _ when String.equal c name -> i
    | _ :: rest -> index (i + 1) rest
  in
  let i = index 0 t.table.columns in
  List.map (fun row -> List.nth row i) t.table.rows
