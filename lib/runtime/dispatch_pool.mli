(** The parallel runtime: worker domains serving a fabric's nodes.

    Each node is owned by one worker, which alone receives on it.  A
    worker that owns one node runs that node's serve loop
    ({!Node.serve_loop}): block on the receive, execute, flush.  A
    worker that owns several shares their traffic through bounded
    per-node queues: execution is serialized per node (a serve mutex)
    but parallel across nodes, idle workers steal queued work, and a
    request arriving at a full queue is refused with a typed
    [Protocol.Reject] the client retries under its own deadline
    ({!Node.Server_busy} if it never gets through).

    Telemetry lands in the cluster's {!Rmi_stats.Metrics}:
    [dispatches] (every executed frame but the shutdown request, added
    as each worker exits), [steals], [queue_rejects],
    [queue_depth_hwm]. *)

type t

(** [create ~net ~nodes ~domains ~queue_depth ()] spawns [domains]
    worker domains serving [nodes]; worker [w] owns the nodes at
    indices [w], [w + domains], ...  The caller keeps driving every
    node NOT in [nodes] — typically the client — itself.

    Raises [Invalid_argument] when [domains < 1], [domains] exceeds the
    number of [nodes], or [queue_depth < 1]. *)
val create :
  net:Rmi_net.Transport.t ->
  nodes:Node.t array ->
  domains:int ->
  queue_depth:int ->
  unit ->
  t

(** Raise the stop flag, join the workers, and serve any stragglers
    still queued.  A worker that owns one node exits only on that
    node's shutdown request ({!Node.send_shutdown}), so the caller
    sends one to every such node first.  Idempotent. *)
val stop : t -> unit
