(** {!Rmi_stats.Clock}, under the name the transports use. *)

include module type of struct
  include Rmi_stats.Clock
end
