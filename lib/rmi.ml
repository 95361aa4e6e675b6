module Config = Rmi_runtime.Config
module Remote_ref = Rmi_runtime.Remote_ref
module Value = Rmi_serial.Value
module Node = Rmi_runtime.Node
module Future = Rmi_runtime.Node.Future
module Fabric = Rmi_runtime.Fabric
module Registry = Rmi_runtime.Registry
module Distributed = Rmi_runtime.Distributed
module Trace = Rmi_runtime.Trace
module Metrics = Rmi_stats.Metrics
module Ascii_table = Rmi_stats.Ascii_table
module Costmodel = Rmi_net.Costmodel
module Fault_sim = Rmi_net.Fault_sim
module Transport = Rmi_net.Transport
module Experiment = Rmi_harness.Experiment
module Gate = Rmi_harness.Gate
module Paper_data = Rmi_harness.Paper_data
module Cli = Rmi_harness.Cli

module Internals = struct
  module Protocol = Rmi_wire.Protocol
  module Msgbuf = Rmi_wire.Msgbuf
  module Codec = Rmi_serial.Codec
  module Class_meta = Rmi_serial.Class_meta
  module Plan = Rmi_core.Plan
  module Pass_manager = Rmi_core.Pass_manager
  module Optimizer = Rmi_core.Optimizer
end
