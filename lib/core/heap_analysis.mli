(** The paper's RMI-specific heap analysis (Section 2).

    A flow-insensitive allocation-site points-to fixpoint over the SSA
    form of every method:

    + every allocation site becomes a heap-graph node (its own
      physical number);
    + assignments/phis/local calls copy allocation-number sets;
    + field stores/loads add and follow labelled graph edges;
    + a {b remote} call clones the argument (and return-value) heap
      subgraphs to model RMI's deep-copy parameter semantics.  Cloning
      keys on the {e physical} allocation number per call site and
      direction, which is exactly the paper's (logical, physical) tuple
      trick of Figure 4: the first crossing clones, later crossings
      reuse the clone, so the data-flow loop of Figure 3 terminates.

    The program must already be in SSA form ({!Rmi_ssa.Ssa.convert});
    [analyze] checks this. *)

module Int_set = Heap_graph.Int_set

type callsite_info = {
  cs_site : Jir.Types.site;
  caller : Jir.Types.method_id;
  callee : Jir.Types.method_id;
  arg_operands : Jir.Instr.operand array;
  arg_sets : Int_set.t array;  (** caller-side points-to sets per argument *)
  param_clone_sets : Int_set.t array;  (** callee-side cloned roots *)
  ret_set : Int_set.t;  (** callee-side return set *)
  ret_clone_set : Int_set.t;  (** caller-side cloned return roots *)
  has_dst : bool;  (** false = the call site ignores the return value *)
}

(** How [Remote_call] edges are modelled (paper Section 2):
    [`Clone] is the paper's deep-copy transfer with (logical, physical)
    tuples; [`Share] is the naive treatment — remote formals alias the
    caller's nodes, exactly the "naive (but wrong) solution" the paper
    warns about.  [`Share] exists for the tests that reproduce that
    argument ([test/test_heap.ml]); everything else uses [`Clone]. *)
type remote_semantics = [ `Clone | `Share ]

type result

(** @raise Invalid_argument if some method is not in SSA form. *)
val analyze : ?remote_semantics:remote_semantics -> Jir.Program.t -> result

val graph : result -> Heap_graph.t
val program : result -> Jir.Program.t

(** Points-to set of a variable (SSA name) of a method. *)
val var_set : result -> Jir.Types.method_id -> Jir.Types.var -> Int_set.t

val static_set : result -> Jir.Types.static_id -> Int_set.t

(** Union of the sets of every [Ret] operand of the method. *)
val return_set : result -> Jir.Types.method_id -> Int_set.t

val callsites : result -> callsite_info list
val callsite : result -> Jir.Types.site -> callsite_info option

(** Set of a (possibly constant) operand as seen in [meth]. *)
val operand_set : result -> Jir.Types.method_id -> Jir.Instr.operand -> Int_set.t

(** Methods reachable from [mid] through {e local} calls, including
    [mid] itself — the unit escape analysis scans for stores. *)
val local_call_closure : result -> Jir.Types.method_id -> Jir.Types.method_id list

(** Number of fixpoint passes it took to stabilise (diagnostics). *)
val iterations : result -> int
