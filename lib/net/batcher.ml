let default_batch_bytes = 4096

type t = {
  max_bytes : int;
  bufs : (int * int, bytes list ref * int ref) Hashtbl.t;
  lock : Mutex.t;
}

let create ~max_bytes =
  if max_bytes < 1 then invalid_arg "Batcher.create: max_bytes < 1";
  { max_bytes; bufs = Hashtbl.create 16; lock = Mutex.create () }

let max_bytes t = t.max_bytes

let add t ~src ~dest msg =
  Mutex.lock t.lock;
  let msgs, bytes =
    match Hashtbl.find_opt t.bufs (src, dest) with
    | Some cell -> cell
    | None ->
        let cell = (ref [], ref 0) in
        Hashtbl.replace t.bufs (src, dest) cell;
        cell
  in
  msgs := msg :: !msgs;
  bytes := !bytes + Bytes.length msg;
  let over =
    if !bytes >= t.max_bytes then begin
      let group = (List.rev !msgs, !bytes) in
      Hashtbl.remove t.bufs (src, dest);
      Some group
    end
    else None
  in
  Mutex.unlock t.lock;
  over

let take t ~src =
  Mutex.lock t.lock;
  let groups =
    Hashtbl.fold
      (fun (s, d) (msgs, bytes) acc ->
        if s = src && !msgs <> [] then (d, List.rev !msgs, !bytes) :: acc
        else acc)
      t.bufs []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  List.iter (fun (d, _, _) -> Hashtbl.remove t.bufs (src, d)) groups;
  Mutex.unlock t.lock;
  groups

let drop_source t ~src =
  Mutex.lock t.lock;
  let gone =
    Hashtbl.fold
      (fun (s, d) _ acc -> if s = src then (s, d) :: acc else acc)
      t.bufs []
  in
  List.iter (Hashtbl.remove t.bufs) gone;
  Mutex.unlock t.lock

let any t =
  Mutex.lock t.lock;
  let yes = Hashtbl.fold (fun _ (msgs, _) acc -> acc || !msgs <> []) t.bufs false in
  Mutex.unlock t.lock;
  yes
