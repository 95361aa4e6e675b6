(** The [Sim] backend: the in-process raw simulated interconnect
    ({!Cluster}) packaged as a first-class {!Transport.t}.  Reliable
    delivery is not a mode of this backend: stack {!Reliable.wrap} on
    it, as {!Rmi_runtime.Fabric} does for [Config.Reliable]. *)

(** Erase an existing cluster into a transport. *)
val pack : Cluster.t -> Transport.t

(** [create ~n metrics] is {!Cluster.create} followed by {!pack}. *)
val create : n:int -> Rmi_stats.Metrics.t -> Transport.t
