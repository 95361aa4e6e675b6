type stat = {
  pass_name : string;
  pass_ms : float;
  pass_size : int;
  pass_note : string;
}

type t = { mutable rev_stats : stat list }

let create () = { rev_stats = [] }

let run t ~name ?(size = fun _ -> 0) ?(note = fun _ -> "") f =
  let t0 = Rmi_stats.Clock.now_us () in
  let x = f () in
  let ms = float_of_int (Rmi_stats.Clock.now_us () - t0) *. 1e-3 in
  t.rev_stats <-
    { pass_name = name; pass_ms = ms; pass_size = size x; pass_note = note x }
    :: t.rev_stats;
  x

let stats t = List.rev t.rev_stats

let total_ms t =
  List.fold_left (fun acc s -> acc +. s.pass_ms) 0. t.rev_stats

let render stats =
  let rows =
    List.map
      (fun s ->
        [
          s.pass_name;
          Printf.sprintf "%.3f" s.pass_ms;
          string_of_int s.pass_size;
          s.pass_note;
        ])
      stats
  in
  let total =
    List.fold_left (fun acc s -> acc +. s.pass_ms) 0. stats
  in
  let rows = rows @ [ [ "total"; Printf.sprintf "%.3f" total; ""; "" ] ] in
  Rmi_stats.Ascii_table.render
    ~headers:[ "pass"; "ms"; "size"; "notes" ]
    ~aligns:
      [
        Rmi_stats.Ascii_table.Left;
        Rmi_stats.Ascii_table.Right;
        Rmi_stats.Ascii_table.Right;
        Rmi_stats.Ascii_table.Left;
      ]
    rows
