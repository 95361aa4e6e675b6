(* Layer timings measured by calling the layers' public functions
   directly on a workload's exact argument and return value: the codec
   with the call-site plan and the recycling scheme the serving node
   would pick, the reliable envelope around the request, and a
   request/reply ping-pong over a bare transport of the workload's
   backend.  Each timing is the median of [reps] timed repetitions. *)

module Codec = Rmi.Internals.Codec
module Plan = Rmi.Internals.Plan
module Msgbuf = Rmi.Internals.Msgbuf
module Protocol = Rmi.Internals.Protocol
module Config = Rmi.Config
module Transport = Rmi.Transport
module Value = Rmi.Value
module Envelope = Rmi_net.Envelope
module Arena = Rmi_serial.Arena
module App = Rmi_apps.App_common
module W = Workloads

type t = {
  arg_encode_ns : float;
  arg_decode_ns : float;
  ret_encode_ns : float;  (* 0 when the method returns nothing *)
  ret_decode_ns : float;
  encode_words : float;  (* minor words per call's encodes, args + return *)
  decode_words : float;
  frame_ns : float;
  transport_rtt_us : float;
  request_bytes : int;
  reply_bytes : int;
  plan_steps : int;
}

let time_p50_ns reps f =
  let a = Array.make reps 0 in
  for i = 0 to reps - 1 do
    let t0 = Stats.now_ns () in
    f ();
    a.(i) <- Stats.now_ns () - t0
  done;
  Array.sort compare a;
  float_of_int a.(reps / 2)

let words_per reps f =
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* one position's encoder and decoder, set up the way Node sets up a
   served call: cycle table per the plan when the config elides it,
   arena when the config and the escape verdict allow it, otherwise
   the reuse candidate where the plan's reuse bit says so *)
type codec = { encode : unit -> unit; decode : unit -> unit; bytes : Bytes.t }

let codec (c : App.compiled) (plan : Plan.t) ~step ~value ~cycle ~reuse ~arena =
  let m = Rmi.Metrics.create () in
  let defs = plan.Plan.defs in
  let write = Codec.compile_write ~defs step in
  let read = Codec.compile_read ~defs step in
  let wctx = Codec.make_wctx ~defs c.meta m ~cycle in
  let w = Msgbuf.create_writer () in
  let encode () =
    Msgbuf.clear w;
    Codec.reset_wctx wctx;
    write wctx w value
  in
  encode ();
  let bytes = Msgbuf.contents w in
  let arena = if arena then Some (Arena.create ~metrics:m) else None in
  let rctx = Codec.make_rctx ~defs ?arena c.meta m ~cycle in
  let r = Msgbuf.reader_of_bytes bytes in
  let cand = ref Value.Null in
  let decode () =
    Msgbuf.reset_reader r bytes;
    Option.iter Arena.reset arena;
    Codec.reset_rctx rctx;
    let v = read rctx r ~cand:!cand in
    if reuse then cand := v
  in
  { encode; decode; bytes }

let header (inp : W.inputs) (plan : Plan.t) kind =
  {
    Protocol.kind;
    src = 0;
    epoch = 0;
    seq = 1;
    target_obj = 0;
    method_id = inp.meth;
    callsite = inp.site;
    nargs = Array.length plan.Plan.args;
    plan_ver = plan.Plan.version;
  }

let message hdr payloads =
  let w = Msgbuf.create_writer () in
  Protocol.write_header w hdr;
  List.iter (fun b -> Msgbuf.write_bytes w b 0 (Bytes.length b)) payloads;
  Msgbuf.contents w

let gapped payload =
  let w = Msgbuf.create_writer () in
  ignore (Msgbuf.reserve w Envelope.gap : int);
  Msgbuf.write_bytes w payload 0 (Bytes.length payload);
  w

(* request out, reply back, on a fresh bare transport *)
let transport_rtt_us (w : W.t) ~reps request reply =
  let net =
    match w.backend with
    | Rmi.Fabric.Sim -> Rmi_net.Sim.create ~n:2 (Rmi.Metrics.create ())
    | Rmi.Fabric.Sock -> Rmi_net.Sock.create_loopback ~n:2 (Rmi.Metrics.create ())
  in
  Fun.protect
    ~finally:(fun () -> Transport.shutdown net)
    (fun () ->
      let wq = gapped request and wr = gapped reply in
      let round () =
        Transport.send_writer net ~src:0 ~dest:1 wq ~payload_off:Envelope.gap;
        ignore (Transport.recv_blocking_slice net ~self:1 : bytes * int * int);
        Transport.send_writer net ~src:1 ~dest:0 wr ~payload_off:Envelope.gap;
        ignore (Transport.recv_blocking_slice net ~self:0 : bytes * int * int)
      in
      for _ = 1 to reps / 10 do
        round ()
      done;
      time_p50_ns reps round /. 1e3)

let run (w : W.t) (c : App.compiled) (inp : W.inputs) ~reps =
  let cfg = w.config in
  let plan = Hashtbl.find c.plans inp.site in
  let site_mode = cfg.Config.serializer = Config.Site_specific in
  let elide = site_mode && cfg.Config.elide_cycle in
  let reuse = site_mode && cfg.Config.reuse in
  let args =
    Array.mapi
      (fun i step ->
        codec c plan ~step ~value:inp.sample_args.(i)
          ~cycle:((not elide) || plan.Plan.cycle_args)
          ~reuse:(reuse && plan.Plan.reuse_args.(i))
          ~arena:
            (cfg.Config.arena && site_mode && (not cfg.Config.reuse)
           && plan.Plan.non_escaping))
      plan.Plan.args
  in
  (* return values decode on the caller, which never uses an arena *)
  let ret =
    match (plan.Plan.ret, inp.sample_ret) with
    | Some step, Some value ->
        Some
          (codec c plan ~step ~value
             ~cycle:((not elide) || plan.Plan.cycle_ret)
             ~reuse:(reuse && plan.Plan.reuse_ret) ~arena:false)
    | _ -> None
  in
  let arg_encode () = Array.iter (fun x -> x.encode ()) args in
  let arg_decode () = Array.iter (fun x -> x.decode ()) args in
  let ret_op f = match ret with Some x -> time_p50_ns reps (f x) | None -> 0.0 in
  let request =
    message (header inp plan Protocol.Request)
      (Array.to_list (Array.map (fun x -> x.bytes) args))
  in
  let reply =
    match ret with
    | Some x -> message (header inp plan Protocol.Reply) [ x.bytes ]
    | None -> message (header inp plan Protocol.Ack) []
  in
  let frame =
    let fw = gapped request in
    fun () ->
      let start =
        Envelope.encode_around fw ~kind:Envelope.Data ~src:0 ~lseq:1
          ~payload_off:Envelope.gap ()
      in
      ignore
        (Envelope.decode_slice (Msgbuf.unsafe_storage fw) ~off:start
           ~len:(Msgbuf.length fw - start))
  in
  {
    arg_encode_ns = time_p50_ns reps arg_encode;
    arg_decode_ns = time_p50_ns reps arg_decode;
    ret_encode_ns = ret_op (fun x -> x.encode);
    ret_decode_ns = ret_op (fun x -> x.decode);
    encode_words =
      words_per reps (fun () ->
          arg_encode ();
          Option.iter (fun x -> x.encode ()) ret);
    decode_words =
      words_per reps (fun () ->
          arg_decode ();
          Option.iter (fun x -> x.decode ()) ret);
    frame_ns = time_p50_ns reps frame;
    transport_rtt_us = transport_rtt_us w ~reps request reply;
    request_bytes = Bytes.length request;
    reply_bytes = Bytes.length reply;
    plan_steps = Plan.size plan;
  }
