module Backend = Cluster

let pack (c : Cluster.t) : Transport.t = Transport.pack (module Cluster) c
let create ?zero_copy ~n metrics = pack (Cluster.create ?zero_copy ~n metrics)
