module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Graph = Rfd_topology.Graph
module Relations = Rfd_topology.Relations
open Rfd_bgp

type budget = { max_events : int option; max_sim_time : float option }

let no_budget = { max_events = None; max_sim_time = None }

let budget ?max_events ?max_sim_time () =
  (match max_events with
  | Some m when m <= 0 -> invalid_arg "Runner.budget: max_events must be positive"
  | Some _ | None -> ());
  (match max_sim_time with
  | Some s when Float.is_nan s || s <= 0. ->
      invalid_arg "Runner.budget: max_sim_time must be positive"
  | Some _ | None -> ());
  { max_events; max_sim_time }

type status = Finished of Oracle.level | Budget_exceeded of Oracle.level

let status_level = function Finished l | Budget_exceeded l -> l
let status_is_budget_exceeded = function Budget_exceeded _ -> true | Finished _ -> false

let status_to_string = function
  | Finished l -> Oracle.level_to_string l
  | Budget_exceeded l -> Printf.sprintf "budget-exceeded(%s)" (Oracle.level_to_string l)

let pp_status ppf s = Format.pp_print_string ppf (status_to_string s)

type result = {
  scenario : Scenario.t;
  origin : int;
  isp : int;
  num_nodes : int;
  tup : float;
  initial_updates : int;
  flap_start : float;
  final_announcement : float;
  convergence_time : float;
  time_to_stable : float;
  time_to_quiet : float;
  final_status : status;
  message_count : int;
  collector : Collector.t;
  spans : Phases.span list;
  background : (int * Prefix.t) list;
  sim_events : int;
  peak_heap : int;
  reuse_timer_events : int;
  peak_reuse_timers : int;
  wall_seconds : float;
  cpu_seconds : float;
}

let origin_prefix = Prefix.v 0

let build_graph topology rng =
  match topology with
  | Scenario.Mesh { rows; cols } -> Rfd_topology.Builders.mesh ~rows ~cols
  | Scenario.Internet { nodes; m } -> Rfd_topology.Random_graphs.barabasi_albert rng ~n:nodes ~m
  | Scenario.Custom g -> g

(* The run draws its graph from the first split of the seed's stream, so a
   fresh stream's first split rebuilds exactly that graph. *)
let base_graph ~seed topology = build_graph topology (Rng.split (Rng.create seed))

let pick_isp scenario rng graph =
  match scenario.Scenario.isp with
  | `Node node ->
      if node >= Graph.num_nodes graph then
        invalid_arg (Printf.sprintf "Runner: isp node %d outside topology" node);
      node
  | `Random -> Rng.int rng (Graph.num_nodes graph)

(* The origin stub is appended as the highest node id, linked to the isp.
   For no-valley policy it is labelled a customer of the isp (a stub AS). *)
let attach_origin graph isp =
  let origin = Graph.num_nodes graph in
  let graph = Graph.add_nodes graph 1 in
  let graph = Graph.add_edges graph [ (isp, origin) ] in
  (graph, origin)

let policy_for scenario graph ~origin ~isp =
  match scenario.Scenario.policy with
  | Scenario.Announce_all -> Policy.announce_all
  | Scenario.No_valley ->
      let base = Relations.infer_by_degree graph in
      (* Re-state every inferred label, then force the stub edge. *)
      let labels =
        Graph.fold_edges graph ~init:[] ~f:(fun acc u v ->
            let lbl =
              if (u, v) = (min isp origin, max isp origin) then
                Relations.Customer_provider { customer = origin; provider = isp }
              else Relations.label base u v
            in
            ((u, v), lbl) :: acc)
      in
      Policy.no_valley (Relations.make graph labels)

(* Resolve the scenario's workload to a concrete trace once per run.
   [nodes] is the {e base} topology's node count (trace origins index base
   nodes; the origin stub is appended after them), so a [Flappers] workload
   expands to exactly the trace [Replay (Trace.flappers ...)] would carry. *)
let workload_trace scenario ~nodes =
  match scenario.Scenario.workload with
  | Scenario.Pulses_only -> None
  | Scenario.Replay trace -> Some trace
  | Scenario.Flappers { count; flaps; mean_gap; alpha; seed } ->
      Some
        (Trace.flappers ~seed ~nodes ~count ~flaps ~mean_gap ~alpha
           ~first_prefix:(scenario.Scenario.background_prefixes + 1))

let trace_node ~origin = function Some n -> n | None -> origin

let resolve_probe scenario graph ~origin =
  match scenario.Scenario.probe with
  | Scenario.No_probe -> []
  | Scenario.Pairs pairs -> pairs
  | Scenario.At_distance d ->
      let dist = Graph.bfs_distances graph origin in
      let rec find node =
        if node >= Array.length dist then []
        else if dist.(node) = d then
          Array.to_list (Graph.neighbors graph node) |> List.map (fun peer -> (node, peer))
        else find (node + 1)
      in
      find 0

(* ------------------------------------------------------------------ *)
(* The phase script                                                    *)

(* Everything the phase script calls on an engine. [sync] returns the
   clock after bringing every partition clock up to it, so a direct
   origination samples its send times from the same "now" in any layout.
   [admin] carries the link operations (link-state flaps, fault plans);
   [observe] runs the caller's observers once the flap collector is
   attached; [flush] replays observations buffered since the last barrier. *)
type engine = {
  bus : Hooks.t;
  drive : budget -> [ `Drained | `Horizon | `Budget ];
  sync : unit -> float;
  observe : unit -> unit;
  originate : node:int -> Prefix.t -> unit;
  schedule_originate : at:float -> node:int -> Prefix.t -> unit;
  schedule_withdraw : at:float -> node:int -> Prefix.t -> unit;
  admin : Rfd_faults.Injector.target;
  flush : unit -> unit;
  status : Prefix.t -> Oracle.level;
  sim_events : unit -> int;
  peak_heap : unit -> int;
  reuse_timer_events : unit -> int;
  peak_reuse_timers : unit -> int;
}

(* The paper's measurement, written once for both engines: settle the
   RIB, announce and time Tup, run the flap train, then read convergence,
   suppression and reuse-timer activity. The RNG split order (graph, isp,
   background) and the scheduling order (pulse events, then the workload
   trace, then faults) are part of every result digest. [with_engine]
   builds the engine over the resolved topology and hands it to the rest
   of the script; its return value is the script's. *)
let script ~caller ~budget scenario with_engine =
  (match Scenario.validate scenario with
  | Ok () -> ()
  | Error msg -> invalid_arg (caller ^ ": " ^ msg));
  let wall_start = Rfd_engine.Clock.wall () in
  let cpu_start = Rfd_engine.Clock.cpu () in
  let rng = Rng.create scenario.Scenario.config.Config.seed in
  let base_graph = build_graph scenario.Scenario.topology (Rng.split rng) in
  let isp = pick_isp scenario (Rng.split rng) base_graph in
  let graph, origin = attach_origin base_graph isp in
  with_engine ~policy:(policy_for scenario graph ~origin ~isp) graph @@ fun e ->
  (* One budget spans the whole run: [max_events] caps the total executed
     event count and [max_sim_time] is an absolute clock horizon, so every
     phase just re-presents the same limits. Once either trips, the
     remaining phases are skipped and the result is partial — timers may
     still be armed, RIBs mid-convergence. *)
  let exceeded = ref false in
  let drive () =
    if not !exceeded then
      match e.drive budget with `Drained -> () | `Horizon | `Budget -> exceeded := true
  in
  (* Phase 1: initial route propagation, measured as Tup. Background
     prefixes (stable, from sampled nodes) are originated first so the
     flapping prefix converges over a populated RIB. *)
  let initial = Collector.create () in
  Collector.attach initial e.bus;
  let background_rng = Rng.split rng in
  let background =
    List.init scenario.Scenario.background_prefixes (fun i ->
        let prefix = Prefix.v (i + 1) in
        let node = Rng.int background_rng (Graph.num_nodes graph) in
        e.originate ~node prefix;
        (node, prefix))
  in
  let workload = workload_trace scenario ~nodes:(Graph.num_nodes base_graph) in
  (* Workload prefixes whose trace opens with a withdrawal were reachable
     when recording started: originate them now so they converge alongside
     the background prefixes, before anything is measured. *)
  (match workload with
  | None -> ()
  | Some trace ->
      List.iter
        (fun (o, prefix) -> e.originate ~node:(trace_node ~origin o) (Prefix.v prefix))
        (Trace.pre_originations trace));
  drive ();
  let origin_announced_at = e.sync () in
  e.originate ~node:origin origin_prefix;
  drive ();
  let tup =
    match Collector.last_update_time initial with
    | Some t -> Float.max 0. (t -. origin_announced_at)
    | None -> 0.
  in
  (* Phase 2: the flap train. *)
  let probe_pairs = resolve_probe scenario graph ~origin in
  let collector = Collector.create ~probe_pairs () in
  Collector.attach collector e.bus;
  e.observe ();
  let flap_start = e.sync () +. scenario.Scenario.settle_gap in
  let pattern =
    let { Scenario.pulses; flap_interval = interval; _ } = scenario in
    Option.value scenario.Scenario.pattern ~default:(Pulse.Periodic { pulses; interval })
  in
  let final_announcement =
    let events = Pulse.events pattern in
    List.iter
      (fun (p : Pulse.event) ->
        let at = flap_start +. p.Pulse.at in
        match (scenario.Scenario.mechanism, p.Pulse.kind) with
        | Scenario.Origin_updates, `Withdraw -> e.schedule_withdraw ~at ~node:origin origin_prefix
        | Scenario.Origin_updates, `Announce -> e.schedule_originate ~at ~node:origin origin_prefix
        | Scenario.Link_state, `Withdraw -> e.admin.tgt_fail_link ~at isp origin
        | Scenario.Link_state, `Announce -> e.admin.tgt_restore_link ~at isp origin)
      events;
    match List.rev events with [] -> flap_start | last :: _ -> flap_start +. last.Pulse.at
  in
  (* The workload trace and the fault plan share the flap phase's time
     origin. Their events are scheduled after the pulse train's, so
     simultaneous events pop in the same (pulse first) order on every
     engine. *)
  let final_announcement =
    match workload with
    | None -> final_announcement
    | Some trace ->
        List.iter
          (fun (t : Trace.event) ->
            let at = flap_start +. t.Trace.time in
            let node = trace_node ~origin t.Trace.origin in
            let prefix = Prefix.v t.Trace.prefix in
            match t.Trace.kind with
            | Trace.Announce -> e.schedule_originate ~at ~node prefix
            | Trace.Withdraw -> e.schedule_withdraw ~at ~node prefix)
          trace;
        Float.max final_announcement (flap_start +. Trace.last_time trace)
  in
  (match scenario.Scenario.faults with
  | Some plan -> Rfd_faults.Injector.install_target ~start:flap_start plan e.admin
  | None -> ());
  drive ();
  e.flush ();
  let convergence_time =
    match Collector.last_update_time collector with
    | Some t -> Float.max 0. (t -. final_announcement)
    | None -> 0.
  in
  (* Oracle summary: the run drains the event queue completely, so the
     last observed activity of each kind marks the transition into the
     corresponding oracle level. Stable = routing and MRAI machinery
     inert; quiet = additionally every reuse timer fired. *)
  let level = e.status origin_prefix in
  let fold_last acc = function Some t -> Float.max acc t | None -> acc in
  let stable_abs =
    List.fold_left fold_last final_announcement
      [ Collector.last_update_time collector; Collector.last_mrai_time collector ]
  in
  let quiet_abs = fold_last stable_abs (Collector.last_timer_time collector) in
  let times series = Array.map fst (Rfd_engine.Timeseries.points series) in
  let spans =
    Phases.classify
      ~update_times:(times (Collector.update_series collector))
      ~reuse_times:(times (Collector.reuse_series collector))
      ~flap_start
  in
  {
    scenario;
    origin;
    isp;
    num_nodes = Graph.num_nodes graph;
    tup;
    initial_updates = Collector.update_count initial;
    flap_start;
    final_announcement;
    convergence_time;
    time_to_stable = stable_abs -. final_announcement;
    time_to_quiet = quiet_abs -. final_announcement;
    final_status = (if !exceeded then Budget_exceeded level else Finished level);
    message_count = Collector.update_count collector;
    collector;
    spans;
    background;
    sim_events = e.sim_events ();
    peak_heap = e.peak_heap ();
    reuse_timer_events = e.reuse_timer_events ();
    peak_reuse_timers = e.peak_reuse_timers ();
    wall_seconds = Rfd_engine.Clock.wall () -. wall_start;
    cpu_seconds = Rfd_engine.Clock.cpu () -. cpu_start;
  }

let run ?(budget = no_budget) ?observe scenario =
  script ~caller:"Runner.run" ~budget scenario @@ fun ~policy graph k ->
  let sim = Sim.create () in
  let net = Network.create ~policy ~config:scenario.Scenario.config sim graph in
  k
    {
      bus = Network.hooks net;
      drive =
        (fun b -> Sim.run_budgeted ?until:b.max_sim_time ?max_events:b.max_events sim);
      sync = (fun () -> Sim.now sim);
      observe = (fun () -> Option.iter (fun f -> f net) observe);
      originate = Network.originate net;
      schedule_originate = Network.schedule_originate net;
      schedule_withdraw = Network.schedule_withdraw net;
      admin = Rfd_faults.Injector.target_of_network net;
      flush = ignore;
      status = Network.status net;
      sim_events = (fun () -> Sim.events_executed sim);
      peak_heap = (fun () -> Sim.max_heap_size sim);
      reuse_timer_events = (fun () -> Network.reuse_timer_events net);
      peak_reuse_timers = (fun () -> Network.peak_reuse_timers net);
    }

(* Host timings are the only nondeterministic fields of a result, so they
   are zeroed before hashing: equal digests mean equal simulation outcomes,
   and the digest of a retried run must equal that of a first-try run.
   [peak_heap] is zeroed too: a partitioned run reports the sum of its
   per-partition heap high-water marks, which legitimately depends on the
   partition count even when the simulation outcome is bit-identical. *)
let result_digest r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string { r with wall_seconds = 0.; cpu_seconds = 0.; peak_heap = 0 } []))

(* ------------------------------------------------------------------ *)
(* Partitioned execution                                               *)

type par_stats = {
  partitions : int;
  cut_edges : int;
  epochs : int;
  per_partition_events : int array;
  routes_interned_total : int;
  paths_interned_total : int;
}

(* The same script over a Par_net. Observation happens on the ensemble's
   canonical replay bus instead of a network's own hook bus, so the
   collected series are identical for any partition count (including 1).
   The two deliberate differences from [run] are documented on {!Par_net}:
   per-directed-link transport RNG streams and the barrier-granular budget
   check. *)
let run_partitioned ?(budget = no_budget) ?on_bus ~partitions scenario =
  script ~caller:"Runner.run_partitioned" ~budget scenario @@ fun ~policy graph k ->
  if partitions < 1 then invalid_arg "Runner.run_partitioned: partitions must be >= 1";
  let par = Par_net.create ~policy ~config:scenario.Scenario.config ~partitions graph in
  Fun.protect ~finally:(fun () -> Par_net.shutdown par) @@ fun () ->
  let result =
    k
      {
        bus = Par_net.bus par;
        drive = (fun b -> Par_net.drive ?until:b.max_sim_time ?max_events:b.max_events par);
        sync =
          (fun () ->
            let now = Par_net.now par in
            Par_net.advance_all par ~time:now;
            now);
        observe = (fun () -> Option.iter (fun f -> f (Par_net.bus par)) on_bus);
        originate = Par_net.originate par;
        schedule_originate = Par_net.schedule_originate par;
        schedule_withdraw = Par_net.schedule_withdraw par;
        admin = Par_net.fault_target par;
        flush = (fun () -> Par_net.flush par);
        status = Par_net.status par;
        sim_events = (fun () -> Par_net.sim_events par);
        peak_heap = (fun () -> Par_net.peak_heap par);
        reuse_timer_events = (fun () -> Par_net.reuse_timer_events par);
        peak_reuse_timers = (fun () -> Par_net.peak_reuse_timers par);
      }
  in
  ( result,
    {
      partitions = Par_net.partitions par;
      cut_edges = Par_net.cut_edges par;
      epochs = Par_net.epochs par;
      per_partition_events = Par_net.per_partition_events par;
      routes_interned_total = Par_net.routes_interned par;
      paths_interned_total = Par_net.paths_interned par;
    } )

let pp_result ppf r =
  Format.fprintf ppf
    "%a@ origin=%d isp=%d nodes=%d tup=%.1fs@ convergence=%.0fs time-to-stable=%.0fs \
     time-to-quiet=%.0fs oracle=%a@ messages=%d peak-damped=%d suppressions=%d reuses=%d \
     (noisy %d)@ events=%d wall=%.2fs cpu=%.2fs"
    Scenario.pp r.scenario r.origin r.isp r.num_nodes r.tup r.convergence_time
    r.time_to_stable r.time_to_quiet pp_status r.final_status r.message_count
    (Collector.peak_damped r.collector)
    (Collector.suppress_events r.collector)
    (Collector.reuse_events r.collector)
    (Collector.noisy_reuse_events r.collector)
    r.sim_events r.wall_seconds r.cpu_seconds
