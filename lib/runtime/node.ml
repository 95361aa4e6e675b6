(* One machine: the per-site records ([Site]), the serving side
   ([Server]) and the calling side ([Client]) over one transport.  This
   module builds and wires them, and reacts to the transport's crash
   and peer events. *)

type t = Client.t
type handler = Server.handler

exception Remote_exception = Site.Remote_exception
exception No_such_method = Client.No_such_method
exception Deadlock = Client.Deadlock
exception Rpc_timeout = Client.Rpc_timeout
exception Peer_down = Client.Peer_down
exception Server_busy = Client.Server_busy

let create net ~id ~meta ~config ~plans =
  let env =
    { Site.net; nid = id; meta; cfg = config; plans;
      sites = Site.Itbl.create 16; trace = None }
  in
  let srv = Server.create env in
  (* crash semantics: process memory (tier state, arenas) always
     dies with the node; the reply cache survives only the Durable
     variant, which models a cache on stable storage *)
  Rmi_net.Transport.on_process_event net (function
    | Rmi_net.Transport.Proc_crashed { machine; durability } when machine = id
      ->
        let amnesia = durability = Rmi_net.Fault_sim.Amnesia in
        Site.trace_event env (Trace.Crash { machine; amnesia });
        Site.crash env;
        Server.crash srv ~amnesia
    | Rmi_net.Transport.Proc_restarted { machine; epoch; _ } when machine = id
      ->
        Site.trace_event env (Trace.Restart { machine; epoch })
    | _ -> ());
  Rmi_net.Transport.on_peer_event net (fun ~self ~peer ev ->
      if self = id then
        match ev with
        | Rmi_net.Transport.Peer_suspected ->
            Site.trace_event env (Trace.Suspect { machine = self; peer })
        | Rmi_net.Transport.Peer_confirmed_down ->
            Site.trace_event env (Trace.Peer_down { machine = self; peer })
        | Rmi_net.Transport.Peer_recovered -> ());
  Client.create srv

let id t = (Client.env t).Site.nid
let config t = (Client.env t).Site.cfg
let set_pump = Client.set_pump
let set_trace t trace = (Client.env t).Site.trace <- Some trace
let reset_caches t = Site.reset_caches (Client.env t)
let export t = Server.export (Client.server t)

module Future = struct
  type t = Client.pending

  let await = Client.await
  let peek = Client.peek
  let all ps = List.map Client.await ps
end

let call_async = Client.call_async
let call = Client.call
let set_replica = Client.set_replica
let serve_pending t = Server.serve_pending (Client.server t)
let serve_slice t msg = Server.serve_slice (Client.server t) msg
let send_reject t hdr = Server.send_reject (Client.server t) hdr
let serve_loop t = Server.serve_loop (Client.server t)
let send_shutdown t ~dest = Server.send_shutdown (Client.server t) ~dest
