(* the monotonic clock, which lives with the metrics so that every
   library can time itself *)
include Rmi_stats.Clock
