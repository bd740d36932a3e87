(** The line-framed [rfd-svc/1] wire protocol.

    Everything on the wire is one line of UTF-8 text ending in ['\n']
    (a trailing ['\r'] is tolerated), always starting with the protocol
    token so every line is self-describing:

    {v rfd-svc/1 query seed=42 pulses=3 topology=mesh:10x10 ...
rfd-svc/1 stats
rfd-svc/1 ping v}

    and in the other direction

    {v rfd-svc/1 ok hit {"schema":"rfd-svc/1","key":...}
rfd-svc/1 ok miss {...}
rfd-svc/1 ok stats {...}
rfd-svc/1 ok pong
rfd-svc/1 error overloaded {"schema":"rfd-svc/1","code":"overloaded",...} v}

    The [hit]/[miss] marker lives in the {e framing}, never in the JSON
    body: the body is a pure function of the stored outcome, which is
    what makes a cache hit byte-identical to the miss that populated it.

    This module is pure (parsing, rendering, and spec-to-scenario
    elaboration) apart from the graph memo {!resolve} fills; all I/O
    lives in {!Server} and {!Client}. *)

val version : string
(** ["rfd-svc/1"] — the leading token of every request and response. *)

(** {1 Query specifications}

    A query names a scenario by value. The spec is also what [rfd-sim]'s
    run, sweep, replay and query flags parse into, each flag value going
    through {!parse_field}; fault injection, probes and budgets stay
    local to the CLI (a served result must be the unbudgeted ground
    truth). Daemon and fleet client both key a spec with {!resolve} — so
    equal specs always map to equal cache keys, across connections,
    restarts and machines.

    The fields, in wire order, with their [rfd-sim] flags and defaults:

{v wire key     rfd-sim flag              default
topology     -t, --topology            mesh:10x10
damping      -d, --damping             cisco      (cisco, juniper, none|off)
mode         -m, --mode                plain      (plain, rcn, selective)
policy       -p, --policy              shortest   (shortest, no-valley)
pulses       -n, --pulses              1
interval     -i, --interval            60
mrai         --mrai                    30
seed         -s, --seed                42
isp          --isp                     0          (-1 = seeded-random)
table-hint   --table-hint              8
reuse-tick   --reuse-tick              none
background   --background              0
flappers     --background-flappers     0
flaps        --flaps                   3
flap-gap     --flap-gap                60
flap-alpha   --flap-alpha              1.5
flap-seed    --flap-seed               1 v} *)

type topo =
  | Mesh of { rows : int; cols : int }
  | Internet of { nodes : int; m : int }
  | Line of int
  | Ring of int
  | Clique of int

type damping = No_damping | Cisco | Juniper

type spec = {
  topology : topo;
  damping : damping;
  mode : Rfd_bgp.Config.damping_mode;
  policy : Rfd_experiment.Scenario.policy_kind;
  pulses : int;
  interval : float;  (** seconds between flap events *)
  mrai : float;
  seed : int;
  isp : int;  (** node the origin attaches to; [-1] = seeded-random *)
  table_hint : int;  (** {!Rfd_bgp.Config.prefix_table_hint} *)
  reuse_tick : float option;  (** [Some t] = RFC 2439 tick-wheel reuse *)
  background : int;  (** steady background prefixes announced before the flap *)
  flappers : int;  (** concurrently flapping extra prefixes; [0] = none *)
  flaps : int;  (** withdraw/announce pairs per flapper *)
  flap_gap : float;  (** mean inter-flap gap (seconds, Pareto-distributed) *)
  flap_alpha : float;  (** Pareto tail exponent of the inter-flap gaps *)
  flap_seed : int;  (** workload seed, independent of [seed] *)
}

val default_spec : spec
(** Paper defaults, matching [rfd-sim run] with no flags: 10×10 mesh,
    Cisco damping, plain mode, shortest-path policy, 1 pulse at 60 s,
    MRAI 30 s, seed 42, isp node 0, no background prefixes or flappers. *)

val max_nodes : int
(** Admission cap on the requested topology size (100_000 nodes). A
    query above it is rejected as [invalid] before any allocation — a
    misbehaving client must not be able to OOM the daemon with
    [internet:10000000]. *)

val max_pulses : int
(** Admission cap on the pulse count (10_000), same rationale. *)

val max_background : int
(** Admission cap on the background prefix count (200_000). *)

val max_flappers : int
(** Admission cap on the flapper count (10_000). *)

val max_workload_events : int
(** Admission cap on the total recorded workload size:
    [flappers * flaps * 2] events (1_000_000) — bounds both the trace
    expansion and the simulated update load of one admitted query. *)

val topo_to_string : topo -> string
val topo_of_string : string -> (topo, string) result

val scenario_topology : topo -> Rfd_experiment.Scenario.topology
(** [Mesh]/[Internet] map to their scenario forms; [line]/[ring]/[clique]
    are built here as [Custom] graphs. *)

val damping_to_string : damping -> string

val damping_of_string : string -> (damping, string) result
(** ["cisco"], ["juniper"], and ["none"] or ["off"]. *)

val damping_params : damping -> Rfd_damping.Params.t option

val elaborate :
  spec ->
  Rfd_experiment.Scenario.topology ->
  (Rfd_experiment.Scenario.t, string) result
(** [elaborate spec topology] is the scenario named ["svc"] that [spec]
    runs on [topology] ([spec.topology] is not consulted), checked by
    {!Rfd_experiment.Scenario.make} and
    {!Rfd_experiment.Scenario.validate}: a malformed spec is a clean
    [Error], never a raise. No admission cap applies and no
    [Mesh]/[Internet] graph is built; [rfd-sim] runs local scenarios
    through this, on the spec's topology or an edge-list graph. *)

val scenario_of_spec : spec -> (Rfd_experiment.Scenario.t, string) result
(** The served elaboration: the admission caps ({!max_nodes},
    {!max_pulses}, {!max_background}, {!max_flappers},
    {!max_workload_events}) on the spec alone, then {!elaborate} on
    {!scenario_topology}[ spec.topology]. An abusive query is a clean
    [Error] here, never a crash (or an allocation) later. The returned
    scenario still carries a [Mesh]/[Internet] topology; {!resolve}
    materializes and keys it. *)

val resolve :
  memo:(int * Rfd_experiment.Scenario.topology, Rfd_topology.Graph.t) Hashtbl.t ->
  spec ->
  (Rfd_experiment.Scenario.t * string, string) result
(** The one keying path daemon and fleet client share:
    {!scenario_of_spec}, then {!Rfd_experiment.Sweep.materialize} through
    [memo] (reset once it holds more than 64 graphs), then
    {!Rfd_experiment.Journal.job_key}. Returns the resolved scenario and
    its key, or the refusal message. Equal specs give equal keys across
    connections, restarts and machines. Mutates only [memo]. *)

(** {1 Requests} *)

type request = Query of spec | Stats | Ping

val parse_field : string -> string -> (spec -> spec, string) result
(** [parse_field key value] parses [value] as spec field [key] (a wire
    key of the table above) and returns the update that sets it. The one
    field grammar: {!parse_request} reads [key=value] tokens with it and
    [rfd-sim] its flag values. Unknown keys and unparsable values are
    [Error]s naming the token. *)

val field_values : spec -> (string * string) list
(** Every field of a spec as [(wire key, value)], in wire order, each
    value in the form {!parse_field} reads back (an absent [reuse-tick]
    is ["none"]). *)

val render_request : request -> string
(** One full line, ['\n'] included. Spec fields are always written out
    explicitly, in a fixed order, with round-trip float formatting — except
    the workload fields ([background], [flappers], [flaps], [flap-gap],
    [flap-alpha], [flap-seed]), which are omitted at their zero/absent
    defaults so pre-workload query lines stay byte-stable. *)

val parse_request : string -> (request, string) result
(** Parse one request line (no trailing newline). Unknown commands,
    unknown or duplicate [key=value] fields, and unparsable values are
    [Error]s with messages naming the offending token. Missing spec
    fields default to {!default_spec} — a hand-typed
    [rfd-svc/1 query pulses=3] is a valid smoke test. *)

(** {1 Responses} *)

type error_code =
  | Invalid
  | Overloaded
  | Crashed
  | Timeout
  | Shutting_down
  | Wrong_shard
      (** shard admission: the key's owner is another daemon in the
          fleet — retry there (the fleet client does this itself) *)

val error_code_to_string : error_code -> string
(** ["invalid"], ["overloaded"], ["crashed"], ["timeout"],
    ["shutting-down"], ["wrong-shard"]. *)

type response =
  | Result of { cached : bool; body : string }
      (** [ok hit]/[ok miss] — [body] is the minified result JSON *)
  | Stats of string  (** [ok stats] — [body] is the server's stats JSON *)
  | Pong
  | Refused of { code : error_code; body : string }
      (** [error <code>] — [body] is the minified error JSON *)

val render_response : response -> string
(** One full line, ['\n'] included. *)

val parse_response : string -> (response, string) result

val result_body : key:string -> Rfd_experiment.Runner.result -> string
(** The minified JSON body served for a finished run: cache key,
    {!Rfd_experiment.Runner.result_digest}, and every deterministic
    headline metric (convergence/stable/quiet times, message and event
    counts, final status). Host timings are deliberately excluded, so
    the body is a pure function of the simulation outcome — re-running
    the daemon from an empty journal reproduces it byte for byte. *)

val error_body : ?key:string -> code:error_code -> message:string -> unit -> string

val outcome_response :
  key:string -> cached:bool -> Rfd_experiment.Journal.outcome -> response
(** The response served for a stored terminal outcome: a
    {!Rfd_experiment.Journal.outcome.Result} becomes {!Result} (with
    {!result_body}), a journalled crash or watchdog timeout becomes the
    corresponding {!Refused}. [cached] only affects the [hit]/[miss]
    framing, never the body. *)
