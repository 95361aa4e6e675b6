(** Shared Cmdliner vocabulary for the experiment binaries.

    [bin/main.ml] (the $(b,rmi-experiments) driver) and
    [bench/main.ml] accept the same workload knobs; the converters and
    argument definitions live here so the two front ends cannot
    drift. *)

open Cmdliner

(** [small]/[paper] (see {!Experiment.scale}). *)
val scale_conv : Experiment.scale Arg.conv

(** [sync]/[parallel] (see {!Rmi_runtime.Fabric.mode}). *)
val mode_conv : Rmi_runtime.Fabric.mode Arg.conv

(** One of the five paper configuration rows, by name. *)
val config_conv : Rmi_runtime.Config.t Arg.conv

val scale_arg : Experiment.scale Term.t
val mode_arg : Rmi_runtime.Fabric.mode Term.t
val config_arg : Rmi_runtime.Config.t Term.t

(** [--window N]: pipelining depth, default 16. *)
val window_arg : int Term.t

(** [--pipeline]: issue RMIs as futures in windows. *)
val pipeline_arg : bool Term.t

(** [--batch]: coalesce small messages into batch envelopes. *)
val batch_arg : bool Term.t

(** Parses ["seed=N,drop=F,dup=F,reorder=F,corrupt=F,delay=K"]. *)
val faults_conv : (int * Rmi_net.Fault_sim.profile) Arg.conv

val faults_arg : (int * Rmi_net.Fault_sim.profile) option Term.t

(** Fold a parsed [--faults] value into a configuration: switches the
    transport to reliable and builds the seeded fault schedule. *)
val apply_faults :
  machines:int ->
  Rmi_runtime.Config.t ->
  (int * Rmi_net.Fault_sim.profile) option ->
  Rmi_runtime.Config.t * Rmi_net.Fault_sim.t option

(** [aot]/[adaptive] (see {!Rmi_runtime.Config.tier}). *)
val tier_conv : Rmi_runtime.Config.tier Arg.conv

(** [--tier TIER]: how call sites obtain their plans, default [aot]. *)
val tier_arg : Rmi_runtime.Config.tier Term.t

(** [--hot-threshold N]: adaptive promotion threshold, default
    {!Rmi_runtime.Config.default_hot_threshold}. *)
val hot_threshold_arg : int Term.t

(** Fold parsed [--tier]/[--hot-threshold] values into a
    configuration. *)
val apply_tier :
  tier:Rmi_runtime.Config.tier ->
  hot_threshold:int ->
  Rmi_runtime.Config.t ->
  Rmi_runtime.Config.t

(** Positional [FILE]: a source file in the Java-like surface syntax. *)
val file_arg : string Term.t

(** [--entry METHOD]: qualified entry method, default ["Driver.main"]. *)
val entry_arg : string Term.t

(** [--machines N]: cluster size, default 2. *)
val machines_arg : int Term.t

(** [--domains N]: worker domains for the dispatch pool, default 4;
    1 keeps the paper's serial per-node serve loops. *)
val domains_arg : int Term.t

(** [--queue-depth N]: per-node admission bound, default
    {!Rmi_runtime.Config.default_queue_depth}. *)
val queue_depth_arg : int Term.t

(** [--servers N]: server machines the load client round-robins
    across, default 8. *)
val servers_arg : int Term.t

(** [--json FILE]: also write the gate report as JSON ({!Gate.to_json}). *)
val json_arg : string option Term.t

(** [--seed N]: crash-schedule seed, default 42. *)
val seed_arg : int Term.t

(** [--crashes K]: crash/restart pairs in the schedule, default 1. *)
val crashes_arg : int Term.t

(** [--calls N]: RMIs the crash workload issues, default 80. *)
val calls_arg : int Term.t

(** [sim]/[sock] (see {!Rmi_runtime.Fabric.backend}). *)
val backend_conv : Rmi_runtime.Fabric.backend Arg.conv

(** [--transport BACKEND]: interconnect backend, default [sim]. *)
val transport_arg : Rmi_runtime.Fabric.backend Term.t

(** Parses ["HOST:PORT"]. *)
val addr_conv : (string * int) Arg.conv

(** [--listen HOST:PORT]: bind-address override for process mode. *)
val listen_arg : (string * int) option Term.t

(** [--peers HOST:PORT,...]: the cluster address list, machine-id
    order; the same list on every process. *)
val peers_arg : (string * int) list Term.t

(** [--self ID]: this process's machine id, default 0 (the driver). *)
val self_arg : int Term.t

(** Reject combinations the socket backend cannot honour.  [--faults]
    now composes with [--transport sock] (the schedule drives the
    {!Rmi_net.Chaos} injector over real frames), but only under
    [--mode sync]; the error message names the offending flags. *)
val check_transport :
  backend:Rmi_runtime.Fabric.backend ->
  mode:Rmi_runtime.Fabric.mode ->
  (int * Rmi_net.Fault_sim.profile) option ->
  (unit, string) result
