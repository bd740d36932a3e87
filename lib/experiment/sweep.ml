module Pool = Rfd_engine.Pool
module Supervisor = Rfd_engine.Supervisor

type point = {
  pulses : int;
  convergence_time : float;
  message_count : int;
  peak_damped : int;
  result : Runner.result;
}

type job = { job_scenario : Scenario.t; job_seed : int; job_pulses : int }

type failure_reason =
  | Crashed of string
  | Budget_exceeded of Runner.result
  | Timed_out of { attempts : int; deadline : float }
  | Interrupted

type failure = {
  failed_seed : int;
  failed_pulses : int;
  failed_topology : string;
  reason : failure_reason;
}

type t = {
  label : string;
  base : Scenario.t;
  points : point list;
  failures : failure list;
}

let default_pulses = List.init 10 (fun i -> i + 1)

(* Pre-build the topology a job's run would construct, so the jobs of a
   sweep that share a (topology, seed) pair reuse one graph instead of
   rebuilding it per point. Runner.base_graph is the run's own resolver, so
   the substitution is bit-identical. Invalid scenarios are left untouched
   so Runner.run reports their validation error unchanged. *)
let materialize ?(memo = Hashtbl.create 1) (scenario : Scenario.t) =
  match (Scenario.validate scenario, scenario.Scenario.topology) with
  | Error _, _ | Ok (), Scenario.Custom _ -> scenario
  | Ok (), topology ->
      let key = (scenario.Scenario.config.Rfd_bgp.Config.seed, topology) in
      let graph =
        match Hashtbl.find_opt memo key with
        | Some graph -> graph
        | None ->
            let graph = Runner.base_graph ~seed:(fst key) topology in
            Hashtbl.add memo key graph;
            graph
      in
      { scenario with Scenario.topology = Scenario.Custom graph }

let plan ?(pulses = default_pulses) ?seeds base =
  let memo = Hashtbl.create 7 in
  let seeds =
    match seeds with
    | Some seeds -> seeds
    | None -> [ base.Scenario.config.Rfd_bgp.Config.seed ]
  in
  List.concat_map
    (fun seed ->
      let config = { base.Scenario.config with Rfd_bgp.Config.seed } in
      let scenario = materialize ~memo { base with Scenario.config } in
      List.map
        (fun n ->
          { job_scenario = Scenario.with_pulses scenario n; job_seed = seed; job_pulses = n })
        pulses)
    seeds

let execute ?jobs ?budget plan =
  Pool.run ?jobs (fun job -> Runner.run ?budget job.job_scenario) plan

let execute_results ?jobs ?budget plan =
  Pool.with_pool ?jobs (fun pool ->
      Pool.map_result pool (fun job -> Runner.run ?budget job.job_scenario) plan)
  |> List.map (function Ok r -> Ok r | Error e -> Error (Printexc.to_string e))

let point_of_result job result =
  {
    pulses = job.job_pulses;
    convergence_time = result.Runner.convergence_time;
    message_count = result.Runner.message_count;
    peak_damped = Collector.peak_damped result.Runner.collector;
    result;
  }

let failure_of job reason =
  {
    failed_seed = job.job_seed;
    failed_pulses = job.job_pulses;
    failed_topology = Scenario.topology_summary job.job_scenario.Scenario.topology;
    reason;
  }

(* Split job outcomes into clean points and structured failures: a crashed
   job carries its exception text, a budget-exceeded run carries its
   partial result. Either way, one bad point costs exactly itself — the
   rest of the sweep still produces data. *)
let partition_outcomes plan outcomes =
  let points, failures =
    List.fold_left2
      (fun (points, failures) job outcome ->
        let fail reason = (points, failure_of job reason :: failures) in
        match outcome with
        | Error msg -> fail (Crashed msg)
        | Ok result ->
            if Runner.status_is_budget_exceeded result.Runner.final_status then
              fail (Budget_exceeded result)
            else (point_of_result job result :: points, failures))
      ([], []) plan outcomes
  in
  (List.rev points, List.rev failures)

let run ?label ?(pulses = default_pulses) ?jobs ?budget base =
  let label = match label with Some l -> l | None -> base.Scenario.name in
  let plan = plan ~pulses base in
  let points, failures = partition_outcomes plan (execute_results ?jobs ?budget plan) in
  { label; base; points; failures }

(* ------------------------------------------------------------------ *)
(* Supervised execution: watchdogs, retries, checkpoint/resume          *)

type supervision = {
  deadline : float option;
  retries : int;
  journal : string option;
  resume : bool;
  should_stop : unit -> bool;
}

let default_supervision =
  {
    deadline = None;
    retries = 0;
    journal = None;
    resume = false;
    should_stop = (fun () -> false);
  }

let job_key job =
  Journal.job_key job.job_scenario ~seed:job.job_seed ~pulses:job.job_pulses

let run_supervised ?label ?(pulses = default_pulses) ?seeds ?jobs ?budget
    ?(supervision = default_supervision) base =
  let label = match label with Some l -> l | None -> base.Scenario.name in
  let plan = plan ~pulses ?seeds base in
  let keyed = List.map (fun job -> (job, job_key job)) plan in
  (* Jobs whose terminal outcome is already journalled are not re-run: the
     journal payload is the marshalled result itself, so merging it back
     reproduces the uninterrupted sweep bit for bit. *)
  let journaled =
    match supervision.journal with
    | Some path when supervision.resume && Sys.file_exists path ->
        (Journal.load path).Journal.entries
    | _ -> Hashtbl.create 0
  in
  let fresh_jobs =
    List.filter (fun (_, key) -> not (Hashtbl.mem journaled key)) keyed
  in
  let writer = Option.map Journal.create supervision.journal in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close writer)
    (fun () ->
      let checkpoint (_, key) outcome =
        match writer with
        | None -> ()
        | Some w -> (
            match outcome with
            | Supervisor.Completed { value; _ } ->
                Journal.append w ~key (Journal.Result value)
            | Supervisor.Crashed { error; _ } ->
                Journal.append w ~key (Journal.Crashed error)
            | Supervisor.Timed_out { attempts; deadline } ->
                Journal.append w ~key (Journal.Timed_out { attempts; deadline })
            (* A cancelled or shed job has no terminal outcome — a resumed
               sweep must run it, so it must not be checkpointed. (Sweeps
               pass no [max_queue], so shed cannot occur here; the arm
               keeps the match exhaustive for the serving layer's sake.) *)
            | Supervisor.Cancelled | Supervisor.Shed _ -> ())
      in
      let outcomes =
        Supervisor.supervise ?jobs ?deadline:supervision.deadline
          ~retries:supervision.retries ~should_stop:supervision.should_stop
          ~on_outcome:checkpoint
          ~key:(fun (_, key) -> key)
          (fun (job, _) -> Runner.run ?budget job.job_scenario)
          fresh_jobs
      in
      let fresh = Hashtbl.create (List.length fresh_jobs) in
      List.iter2 (fun (_, key) o -> Hashtbl.replace fresh key o) fresh_jobs outcomes;
      (* Reassemble in plan order, interleaving journalled and fresh
         outcomes, so the result is indistinguishable from a single
         uninterrupted pass. *)
      let points, failures =
        List.fold_left
          (fun (points, failures) (job, key) ->
            let fail reason = (points, failure_of job reason :: failures) in
            let from_result result =
              if Runner.status_is_budget_exceeded result.Runner.final_status then
                fail (Budget_exceeded result)
              else (point_of_result job result :: points, failures)
            in
            match Hashtbl.find_opt journaled key with
            | Some (Journal.Result r) -> from_result r
            | Some (Journal.Crashed msg) -> fail (Crashed msg)
            | Some (Journal.Timed_out { attempts; deadline }) ->
                fail (Timed_out { attempts; deadline })
            | None -> (
                match Hashtbl.find_opt fresh key with
                | Some (Supervisor.Completed { value; _ }) -> from_result value
                | Some (Supervisor.Crashed { error; _ }) -> fail (Crashed error)
                | Some (Supervisor.Timed_out { attempts; deadline }) ->
                    fail (Timed_out { attempts; deadline })
                | Some (Supervisor.Cancelled | Supervisor.Shed _) ->
                    fail Interrupted
                | None -> assert false))
          ([], []) keyed
      in
      { label; base; points = List.rev points; failures = List.rev failures })

let pp_failure ppf f =
  Format.fprintf ppf "topology=%s seed=%d pulses=%d: %a" f.failed_topology
    f.failed_seed f.failed_pulses
    (fun ppf -> function
      | Crashed msg -> Format.fprintf ppf "crashed: %s" msg
      | Budget_exceeded r ->
          Format.fprintf ppf "%s after %d events, %d updates observed"
            (Runner.status_to_string r.Runner.final_status)
            r.Runner.sim_events r.Runner.message_count
      | Timed_out { attempts; deadline } ->
          Format.fprintf ppf "timed out (deadline %gs, %d attempt(s))" deadline
            attempts
      | Interrupted -> Format.fprintf ppf "interrupted before running")
    f.reason

let convergence_series t =
  List.map (fun p -> (float_of_int p.pulses, p.convergence_time)) t.points

let message_series t =
  List.map (fun p -> (float_of_int p.pulses, float_of_int p.message_count)) t.points

let stable_series t =
  List.map (fun p -> (float_of_int p.pulses, p.result.Runner.time_to_stable)) t.points

let quiet_series t =
  List.map (fun p -> (float_of_int p.pulses, p.result.Runner.time_to_quiet)) t.points

let intended_series params ~interval ~tup ~pulses =
  List.map
    (fun n -> (float_of_int n, Intended.convergence_time params ~pulses:n ~interval ~tup))
    pulses

module Summary = Rfd_engine.Stats.Summary

type aggregate = { agg_pulses : int; convergence : Summary.t; messages : Summary.t }

let run_many ?(pulses = default_pulses) ?jobs ?budget ~seeds base =
  if seeds = [] then invalid_arg "Sweep.run_many: empty seed list";
  let plan = plan ~pulses ~seeds base in
  let results = Array.of_list (execute_results ?jobs ?budget plan) in
  let aggregates =
    List.map
      (fun n -> { agg_pulses = n; convergence = Summary.create (); messages = Summary.create () })
      pulses
  in
  (* The plan is seed-major, [pulses] points per seed, and execute preserves
     order — so accumulation happens in seed order for any jobs count,
     keeping the summaries bit-identical to sequential execution. Crashed
     or budget-exceeded runs contribute no sample: their absence shows up
     as a lower [Summary.n] instead of poisoning the means. *)
  let per_seed = List.length pulses in
  List.iteri
    (fun s _seed ->
      List.iteri
        (fun i agg ->
          match results.(s * per_seed + i) with
          | Ok result
            when not (Runner.status_is_budget_exceeded result.Runner.final_status) ->
              Summary.add agg.convergence result.Runner.convergence_time;
              Summary.add agg.messages (float_of_int result.Runner.message_count)
          | Ok _ | Error _ -> ())
        aggregates)
    seeds;
  aggregates

let mean_convergence_series aggs =
  List.map (fun a -> (float_of_int a.agg_pulses, Summary.mean a.convergence)) aggs

let mean_message_series aggs =
  List.map (fun a -> (float_of_int a.agg_pulses, Summary.mean a.messages)) aggs
