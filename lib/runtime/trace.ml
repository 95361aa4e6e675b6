type event =
  | Call_start of { machine : int; dest : int; meth : int; callsite : int; local : bool }
  | Call_end of { machine : int; callsite : int; elapsed_us : float }
  | Served of { machine : int; src : int; meth : int; callsite : int }
  | Retry of { machine : int; frames : int }
  | Timeout of { machine : int; dests : int list }
  | Future_created of { machine : int; seq : int; callsite : int; dest : int }
  | Future_resolved of { machine : int; seq : int; callsite : int; failed : bool }
  | Batch_flush of { machine : int; dest : int; msgs : int; bytes : int }
  | Crash of { machine : int; amnesia : bool }
  | Restart of { machine : int; epoch : int }
  | Suspect of { machine : int; peer : int }
  | Peer_down of { machine : int; peer : int }
  | Call_retry of { machine : int; seq : int; dest : int; attempt : int }
  | Failover of { machine : int; seq : int; primary : int; replica : int }
  | Breaker_open of { machine : int; peer : int }
  | Promote of { machine : int; callsite : int; calls : int; version : int }
  | Deopt of { machine : int; callsite : int; position : string; version : int }

type entry = { seq : int; at_us : float; event : event }

type t = {
  mutable rev_entries : entry list;
  mutable count : int;
  started : int;  (* a {!Rmi_net.Clock.now_us} reading *)
  mutex : Mutex.t;
}

let create () =
  {
    rev_entries = [];
    count = 0;
    started = Rmi_net.Clock.now_us ();
    mutex = Mutex.create ();
  }

let record t event =
  let at_us = float_of_int (Rmi_net.Clock.now_us () - t.started) in
  Mutex.lock t.mutex;
  t.rev_entries <- { seq = t.count; at_us; event } :: t.rev_entries;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

let entries t =
  Mutex.lock t.mutex;
  let es = List.rev t.rev_entries in
  Mutex.unlock t.mutex;
  es

let length t =
  Mutex.lock t.mutex;
  let n = t.count in
  Mutex.unlock t.mutex;
  n

let clear t =
  Mutex.lock t.mutex;
  t.rev_entries <- [];
  t.count <- 0;
  Mutex.unlock t.mutex

let pp_event ppf = function
  | Call_start { machine; dest; meth; callsite; local } ->
      Format.fprintf ppf "m%d -> m%d call meth=%d site=%d%s" machine dest meth
        callsite
        (if local then " (local)" else "")
  | Call_end { machine; callsite; elapsed_us } ->
      Format.fprintf ppf "m%d done site=%d (%.1f us)" machine callsite elapsed_us
  | Served { machine; src; meth; callsite } ->
      Format.fprintf ppf "m%d served meth=%d site=%d for m%d" machine meth
        callsite src
  | Retry { machine; frames } ->
      Format.fprintf ppf "m%d retransmitted %d frame%s" machine frames
        (if frames = 1 then "" else "s")
  | Timeout { machine; dests } ->
      Format.fprintf ppf "m%d timed out waiting on %s" machine
        (String.concat "," (List.map (Printf.sprintf "m%d") dests))
  | Future_created { machine; seq; callsite; dest } ->
      Format.fprintf ppf "m%d future seq=%d site=%d -> m%d" machine seq
        callsite dest
  | Future_resolved { machine; seq; callsite; failed } ->
      Format.fprintf ppf "m%d future seq=%d site=%d %s" machine seq callsite
        (if failed then "failed" else "resolved")
  | Batch_flush { machine; dest; msgs; bytes } ->
      Format.fprintf ppf "m%d flushed %d msg%s (%d B) -> m%d" machine msgs
        (if msgs = 1 then "" else "s")
        bytes dest
  | Crash { machine; amnesia } ->
      Format.fprintf ppf "m%d crashed%s" machine
        (if amnesia then " (amnesia)" else " (durable)")
  | Restart { machine; epoch } ->
      Format.fprintf ppf "m%d restarted epoch=%d" machine epoch
  | Suspect { machine; peer } ->
      Format.fprintf ppf "m%d suspects m%d" machine peer
  | Peer_down { machine; peer } ->
      Format.fprintf ppf "m%d confirms m%d down" machine peer
  | Call_retry { machine; seq; dest; attempt } ->
      Format.fprintf ppf "m%d retry seq=%d -> m%d (attempt %d)" machine seq
        dest attempt
  | Failover { machine; seq; primary; replica } ->
      Format.fprintf ppf "m%d failover seq=%d m%d -> m%d" machine seq primary
        replica
  | Breaker_open { machine; peer } ->
      Format.fprintf ppf "m%d breaker open for m%d" machine peer
  | Promote { machine; callsite; calls; version } ->
      Format.fprintf ppf "m%d promoted site=%d after %d calls (plan v%d)"
        machine callsite calls version
  | Deopt { machine; callsite; position; version } ->
      Format.fprintf ppf "m%d deopt site=%d at %s -> plan v%d" machine
        callsite position version

let render ?(limit = 200) t =
  let buf = Buffer.create 512 in
  List.iteri
    (fun i e ->
      if i < limit then
        Buffer.add_string buf
          (Format.asprintf "%8.1fus  %a\n" e.at_us pp_event e.event))
    (entries t);
  if length t > limit then
    Buffer.add_string buf (Printf.sprintf "... (%d more events)\n" (length t - limit));
  Buffer.contents buf

let summary t =
  (* per callsite: count + latency min/mean/max over Call_end events *)
  let stats : (int, int ref * float ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun e ->
      match e.event with
      | Call_end { callsite; elapsed_us; _ } ->
          let count, total, mn, mx =
            match Hashtbl.find_opt stats callsite with
            | Some s -> s
            | None ->
                let s = (ref 0, ref 0.0, ref infinity, ref 0.0) in
                Hashtbl.add stats callsite s;
                s
          in
          incr count;
          total := !total +. elapsed_us;
          if elapsed_us < !mn then mn := elapsed_us;
          if elapsed_us > !mx then mx := elapsed_us
      | Call_start _ | Served _ | Retry _ | Timeout _ | Future_created _
      | Future_resolved _ | Batch_flush _ | Crash _ | Restart _ | Suspect _
      | Peer_down _ | Call_retry _ | Failover _ | Breaker_open _ | Promote _
      | Deopt _ -> ())
    (entries t);
  let rows =
    Hashtbl.fold
      (fun callsite (count, total, mn, mx) acc ->
        ( callsite,
          [
            string_of_int callsite;
            string_of_int !count;
            Printf.sprintf "%.1f" !mn;
            Printf.sprintf "%.1f" (!total /. float_of_int !count);
            Printf.sprintf "%.1f" !mx;
          ] )
        :: acc)
      stats []
    |> List.sort compare |> List.map snd
  in
  Rmi_stats.Ascii_table.render
    ~headers:[ "callsite"; "calls"; "min us"; "mean us"; "max us" ]
    rows
