let pack (c : Cluster.t) : Transport.t = Transport.pack (module Cluster) c
let create ~n metrics = pack (Cluster.create ~n metrics)
