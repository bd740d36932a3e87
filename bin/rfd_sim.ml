(* rfd-sim: command-line driver for the route-flap-damping simulator.

   Subcommands:
     run       — one flap scenario, full metrics and phases
     sweep     — convergence/messages across pulse counts
     replay    — drive a recorded rfd-trace/1 update trace as the workload
     trace-gen — synthesize a heavy-tailed multi-origin flap trace
     intended  — the analytic (Section 3) calculation only
     topo      — generate a topology and print it as an edge list
     metrics   — structural metrics of a topology
     query     — ask an rfd-simd daemon (or sharded fleet) for a result
     journal-compact — rewrite or check a sweep/daemon journal

   The scenario flags of every command parse into one [Svc_protocol.spec];
   run, sweep and replay build their scenario with [Svc_protocol.elaborate]. *)

open Cmdliner
module Scenario = Rfd.Scenario
module Params = Rfd.Params

(* ------------------------------------------------------------------ *)
(* Scenario flags                                                      *)

module Svc = Rfd.Svc_protocol

(* One row per rfd-svc/1 spec field: its wire key and its flag. Every
   value is parsed by the protocol's own field parser and every unset
   flag keeps its [Svc.default_spec] value, so the grammar and the
   defaults live in Svc_protocol alone. *)
type flag = { key : string; names : string list; docv : string; doc : string }

let flags =
  let row ?(docv = "VAL") key names doc = { key; names; docv; doc } in
  [
    row "topology" [ "t"; "topology" ]
      "Topology: mesh:RxC, internet:N[,M] (Barabasi-Albert), line:N, ring:N or clique:N.";
    row "damping" [ "d"; "damping" ] "Damping parameters: cisco, juniper or none.";
    row "mode" [ "m"; "mode" ] "Damping mode: plain, rcn or selective.";
    row "policy" [ "p"; "policy" ] "Routing policy: shortest or no-valley.";
    row "pulses" [ "n"; "pulses" ] "Number of withdrawal/announcement pulses.";
    row "interval" [ "i"; "interval" ] "Flap interval in seconds.";
    row "mrai" [ "mrai" ] "MRAI in seconds (0 disables).";
    row "seed" [ "s"; "seed" ] "Random seed.";
    row "isp" [ "isp" ] "Node the flapping origin attaches to (-1 = random).";
    row "table-hint" [ "table-hint" ] ~docv:"N"
      "Initial bucket-count hint for each per-peer prefix-keyed router table \
       (RIB-In, RIB-Out, MRAI deadlines, pending, flush timers). Lower it to 1-2 \
       for Internet-scale single-origin runs so tens of thousands of low-degree \
       routers don't pay fixed table overhead per session.";
    row "reuse-tick" [ "reuse-tick" ] ~docv:"SECONDS"
      "Schedule reuse timers on an RFC 2439 reuse-list tick wheel with this tick \
       period (seconds) instead of one exact timer per suppressed route. Reuse then \
       happens at the first tick boundary at or after the exact reuse instant.";
    row "background" [ "background" ] ~docv:"N"
      "Announce $(docv) steady background prefixes (one per seeded-random \
       origin router) before the flap phase, so damping acts on a loaded RIB.";
    row "flappers" [ "background-flappers" ] ~docv:"N"
      "Add $(docv) background flapper prefixes — extra origins that keep \
       withdrawing and re-announcing concurrently with the measured flap, with \
       heavy-tailed (Pareto) inter-flap gaps. 0 disables the workload.";
    row "flaps" [ "flaps" ] ~docv:"N"
      "Withdraw/announce pairs each background flapper performs.";
    row "flap-gap" [ "flap-gap" ] ~docv:"SECONDS"
      "Mean gap (seconds) between a background flapper's events.";
    row "flap-alpha" [ "flap-alpha" ] ~docv:"ALPHA"
      "Pareto tail exponent of the inter-flap gaps (smaller = heavier tail; must be \
       positive).";
    row "flap-seed" [ "flap-seed" ] ~docv:"SEED"
      "Seed of the background-flapper workload (independent of --seed).";
  ]

let flag key = List.find (fun f -> f.key = key) flags

(* What a command's scenario flags parse into: the spec, and the graph of
   an edge-list file given as the topology (local commands only). *)
type parsed = { spec : Svc.spec; edge_list : Rfd.Graph.t option }

(* [spec_term rows]: a term over the flags of [rows], starting from
   [base]. With [~edge_list:true] a topology value without a ':' that
   names an existing file is read as an edge list. *)
let spec_term ?(edge_list = false) ?(base = Svc.default_spec) rows =
  let defaults = Svc.field_values base in
  let arg { key; names; docv; doc } =
    let file = edge_list && key = "topology" in
    let parse s =
      if file && (not (String.contains s ':')) && Sys.file_exists s then
        match In_channel.with_open_bin s In_channel.input_all |> Rfd.Edge_list.parse_graph with
        | Ok g -> Ok (s, fun p -> { p with edge_list = Some g })
        | Error e -> Error ("parse error in " ^ s ^ ": " ^ e)
        | exception Sys_error e -> Error (s ^ ": " ^ e)
      else
        Svc.parse_field key s
        |> Result.map (fun set -> (s, fun p -> { p with spec = set p.spec }))
    in
    let doc = if file then doc ^ " An edge-list file also works." else doc in
    let field = Arg.conv' (parse, fun ppf (s, _) -> Format.pp_print_string ppf s) in
    let none = List.assoc key defaults in
    Arg.(value & opt (some ~none field) None & info names ~docv ~doc)
  in
  let apply value p = Option.fold ~none:p ~some:(fun (_, set) -> set p) value in
  List.fold_left
    (fun acc row -> Term.(const apply $ arg row $ acc))
    (Term.const { spec = base; edge_list = None })
    rows

let exit_crashed = 1
let exit_degraded = 2

(* Every error exit: one line on stderr, then [code]. *)
let fail ?(code = exit_crashed) ~cmd msg =
  Format.eprintf "rfd-sim %s: %s@." cmd msg;
  exit code

(* A command line that names no valid scenario, refused with Cmdliner's
   exit code for command-line errors. *)
let refuse ~cmd msg = fail ~code:Cmd.Exit.cli_error ~cmd msg

(* The topology a local command runs on: the edge-list file's graph, or
   the spec's own. *)
let topology ~cmd p =
  match p.edge_list with
  | Some g -> Scenario.Custom g
  | None -> (
      try Svc.scenario_topology p.spec.Svc.topology
      with Invalid_argument e -> refuse ~cmd e)

(* The scenario of a local command: the protocol's elaboration, plus what
   the wire spec lacks. The name "cli" is part of every result digest and
   sweep-journal key, so it must not change. *)
let scenario ~cmd ?(probe = Scenario.No_probe) ?faults ?workload p =
  let ok = function Ok x -> x | Error e -> refuse ~cmd e in
  let s = ok (Svc.elaborate p.spec (topology ~cmd p)) in
  let workload = Option.value workload ~default:s.Scenario.workload in
  let s = { s with Scenario.name = "cli"; probe; faults; workload } in
  ok (Scenario.validate s);
  s

let damping p = Svc.damping_params p.spec.Svc.damping

(* ------------------------------------------------------------------ *)
(* Run budgets and fault injection (shared by run and sweep)           *)

let max_events_arg =
  let doc =
    "Stop a run after $(docv) simulator events (reported as \
     budget-exceeded); off by default."
  in
  Arg.(value & opt (some int) None & info [ "max-events" ] ~docv:"N" ~doc)

let max_sim_time_arg =
  let doc =
    "Stop a run once the virtual clock would pass $(docv) seconds \
     (reported as budget-exceeded); off by default."
  in
  Arg.(value & opt (some float) None & info [ "max-sim-time" ] ~docv:"SECONDS" ~doc)

let budget_term =
  let make max_events max_sim_time =
    Rfd.Runner.budget ?max_events ?max_sim_time ()
  in
  Term.(const make $ max_events_arg $ max_sim_time_arg)

let loss_arg =
  let doc = "Per-message loss probability on every directed link." in
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc)

let dup_arg =
  let doc = "Per-message duplication probability on every directed link." in
  Arg.(value & opt float 0. & info [ "dup" ] ~docv:"P" ~doc)

let chaos_flaps_arg =
  let doc = "Seeded-random background link fail/recover cycles during the flap phase." in
  Arg.(value & opt int 0 & info [ "chaos-flaps" ] ~docv:"N" ~doc)

let chaos_window_arg =
  let doc = "Window (seconds after the flap start) in which random failures begin." in
  Arg.(value & opt float 120. & info [ "chaos-window" ] ~docv:"SECONDS" ~doc)

let chaos_downtime_arg =
  let doc = "Mean outage duration of a random link failure (exponential)." in
  Arg.(value & opt float 30. & info [ "chaos-downtime" ] ~docv:"SECONDS" ~doc)

let chaos_seed_arg =
  let doc = "Seed for the fault plan's random parts (independent of --seed)." in
  Arg.(value & opt int 1 & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let faults_term =
  let make loss dup flaps window downtime seed =
    if loss = 0. && dup = 0. && flaps = 0 then None
    else
      Some
        (Rfd.Fault_plan.make ~name:"cli-chaos" ~seed
           ~degradation:{ Rfd.Fault_plan.loss; duplication = dup }
           ?random_flaps:
             (if flaps > 0 then
                Some
                  {
                    Rfd.Fault_plan.cycles = flaps;
                    window;
                    down_mean = downtime;
                    candidates = [];
                  }
              else None)
           ())
  in
  Term.(
    const make $ loss_arg $ dup_arg $ chaos_flaps_arg $ chaos_window_arg
    $ chaos_downtime_arg $ chaos_seed_arg)

(* ------------------------------------------------------------------ *)
(* Exit-code convention (documented in every subcommand's man page):
     0 — success, every requested point produced clean data
     1 — at least one point crashed (raised an exception)
     2 — failures, but only benign ones: budget-exceeded, watchdog
         timeout, or an interrupted (drained) sweep
     124 — the command line was refused ([refuse]) before anything ran
   Cmdliner's own 123/124/125 still apply to CLI parse errors etc. *)

let exit_doc =
  [
    `S Cmdliner.Manpage.s_exit_status;
    `P
      "$(b,0) on success; $(b,1) if any point $(i,crashed) (the simulation \
       raised); $(b,2) if the only failures were benign — a run budget was \
       exceeded, a supervised job timed out, or the sweep was interrupted \
       and drained gracefully; $(b,124) if the command line describes no \
       valid scenario (say, a mesh under 3x3, a zero interval or \
       $(b,--partitions) 0), reported on one line before anything is built.";
  ]

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let probe_arg =
  let doc = "Trace penalties at the first router at this hop distance from the origin." in
  Arg.(value & opt (some int) None & info [ "probe-distance" ] ~doc)

let transcript_arg =
  let doc = "Print the first $(docv) protocol-trace lines of the flap phase." in
  Arg.(value & opt (some int) None & info [ "transcript" ] ~docv:"N" ~doc)

let partitions_arg =
  let doc =
    "Run on the partitioned conservative-parallel engine with $(docv) topology \
     partitions (one worker domain each). Results are bit-identical for any \
     partition count, but use different transport RNG streams than the default \
     single-network engine — compare partitioned runs with partitioned runs."
  in
  Arg.(value & opt (some int) None & info [ "partitions" ] ~docv:"N" ~doc)

let check_partitions ~cmd =
  Option.iter (fun n ->
      if n < 1 then refuse ~cmd (Printf.sprintf "--partitions must be >= 1 (got %d)" n))

let print_digest_arg =
  let doc =
    "Print the deterministic result digest (host timings excluded) as the final \
     line — the fingerprint CI diffs across partition counts."
  in
  Arg.(value & flag & info [ "print-digest" ] ~doc)

(* Shared by run and replay: run [scenario] on the plain engine, or on the
   partitioned one when [partitions] is set; print [head r], then the
   partitions, faults and oracle lines, then [tail r]; finish with the
   digest line and the exit-code convention. *)
let simulate ~cmd ~budget ?observe ?on_bus ~partitions ~print_digest ~head
    ?(tail = ignore) scenario =
  let r, par_stats =
    try
      match partitions with
      | None -> (Rfd.Runner.run ~budget ?observe scenario, None)
      | Some partitions ->
          let r, stats = Rfd.Runner.run_partitioned ~budget ?on_bus ~partitions scenario in
          (r, Some stats)
    with e -> fail ~cmd ("crashed: " ^ Printexc.to_string e)
  in
  head r;
  (match par_stats with
  | None -> ()
  | Some s ->
      Format.printf "partitions: %d (cut edges %d, epochs %d, per-partition events %s)@."
        s.Rfd.Runner.partitions s.Rfd.Runner.cut_edges s.Rfd.Runner.epochs
        (String.concat "/"
           (Array.to_list (Array.map string_of_int s.Rfd.Runner.per_partition_events))));
  (match
     ( Rfd.Collector.dropped_updates r.Rfd.Runner.collector,
       Rfd.Collector.duplicated_updates r.Rfd.Runner.collector )
   with
  | 0, 0 -> ()
  | dropped, duplicated -> Format.printf "faults: dropped=%d duplicated=%d@." dropped duplicated);
  Format.printf "oracle: time-to-stable=%.1fs time-to-quiet=%.1fs final=%s@."
    r.Rfd.Runner.time_to_stable r.Rfd.Runner.time_to_quiet
    (Rfd.Runner.status_to_string r.Rfd.Runner.final_status);
  tail r;
  if print_digest then Format.printf "digest: %s@." (Rfd.Runner.result_digest r);
  if Rfd.Runner.status_is_budget_exceeded r.Rfd.Runner.final_status then exit exit_degraded

let run_cmd =
  let action p probe transcript budget faults partitions print_digest =
    check_partitions ~cmd:"run" partitions;
    let probe = Option.map (fun d -> Scenario.At_distance d) probe in
    let scenario = scenario ~cmd:"run" ?probe ?faults p in
    (* The first [n] flap-phase events, newest first; rendered in [tail]. *)
    let kept = ref [] and room = ref (Option.value transcript ~default:0) in
    let keep ~time event =
      if !room > 0 then begin
        kept := (time, event) :: !kept;
        decr room
      end
    in
    let subscribe hooks = Rfd.Hooks.subscribe hooks keep in
    let on_bus = Option.map (fun _ -> subscribe) transcript in
    let observe = Option.map (fun _ net -> subscribe (Rfd.Network.hooks net)) transcript in
    let head r = Format.printf "%a@.@." Rfd.Runner.pp_result r in
    let tail r =
      Format.printf "phases:@.";
      List.iter (fun s -> Format.printf "  %a@." Rfd.Phases.pp_span s) r.Rfd.Runner.spans;
      (match Rfd.Collector.probed_pairs r.Rfd.Runner.collector with
      | [] -> ()
      | pairs ->
          List.iter
            (fun (router, peer) ->
              match Rfd.Collector.penalty_trace r.Rfd.Runner.collector ~router ~peer with
              | Some ts when Rfd.Timeseries.length ts > 0 ->
                  Format.printf "penalty trace r%d <- peer %d:@." router peer;
                  Rfd.Timeseries.iter ts (fun ~time ~value ->
                      Format.printf "  %10.2f  %8.1f@." time value)
              | _ -> ())
            pairs);
      let intended =
        match damping p with
        | Some params ->
            Rfd.Intended.convergence_time params ~pulses:p.spec.Svc.pulses
              ~interval:p.spec.Svc.interval ~tup:r.Rfd.Runner.tup
        | None -> r.Rfd.Runner.tup
      in
      Format.printf "@.intended convergence for this flap pattern: %.0f s@." intended;
      Option.iter
        (fun n ->
          Format.printf "@.protocol transcript (first %d events):@." n;
          List.iter
            (fun (time, event) -> Format.printf "%a@." (Rfd.Hooks.pp_event ~time) event)
            (List.rev !kept))
        transcript
    in
    simulate ~cmd:"run" ~budget ?observe ?on_bus ~partitions ~print_digest ~head ~tail
      scenario
  in
  let doc = "run one flap scenario and report metrics" in
  Cmd.v (Cmd.info "run" ~doc ~man:exit_doc)
    Term.(
      const action
      $ spec_term ~edge_list:true flags
      $ probe_arg $ transcript_arg $ budget_term $ faults_term $ partitions_arg
      $ print_digest_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let max_pulses_arg =
  let doc = "Sweep pulse counts 1..$(docv)." in
  Arg.(value & opt int 10 & info [ "max-pulses" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains running sweep points in parallel (0 = all cores minus one). \
     Results are bit-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Per-job wall-clock deadline in seconds. A point that overruns it is marked \
     timed-out (and retried if $(b,--retries) allows) instead of stalling the sweep."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc =
    "Re-run a crashed or timed-out point up to $(docv) extra times, with \
     deterministic seeded backoff. A retried success is bit-identical to a \
     first-try success."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let journal_arg =
  let doc =
    "Append every completed point to $(docv) (one fsync'd line per job), so an \
     interrupted sweep can be finished later with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume from journal $(docv): points it already records are skipped and their \
     stored results merged back, making the finished sweep bit-identical to an \
     uninterrupted run. Implies $(b,--journal) $(docv) (newly completed points are \
     appended to the same file)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

(* SIGINT and SIGTERM trigger the same graceful drain: in-flight points
   finish (and are journalled), queued points are abandoned as
   Interrupted failures — so a supervisor's `kill` gets the same clean
   checkpoint a Ctrl-C does. A second signal falls back to die-now. *)
let interrupted = Atomic.make false

let install_drain_signals () =
  let handler =
    Sys.Signal_handle
      (fun _ ->
        if Atomic.exchange interrupted true then exit 130
        else
          prerr_endline
            "rfd-sim: interrupted — draining in-flight points (again to kill)")
  in
  List.iter
    (fun signal ->
      try ignore (Sys.signal signal handler) with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let sweep_cmd =
  let action p max_pulses jobs budget faults deadline retries journal resume =
    let scenario = scenario ~cmd:"sweep" ?faults p in
    let jobs = if jobs <= 0 then Rfd.Pool.default_jobs () else jobs in
    let pulses = List.init max_pulses (fun i -> i + 1) in
    let supervision =
      {
        Rfd.Sweep.deadline;
        retries;
        journal = (match resume with Some _ as r -> r | None -> journal);
        resume = resume <> None;
        should_stop = (fun () -> Atomic.get interrupted);
      }
    in
    install_drain_signals ();
    let sweep =
      Rfd.Sweep.run_supervised ~label:"cli" ~pulses ~jobs ~budget ~supervision scenario
    in
    let tup =
      match sweep.Rfd.Sweep.points with
      | p :: _ -> p.Rfd.Sweep.result.Rfd.Runner.tup
      | [] -> 30.
    in
    let columns =
      [
        ("convergence(s)", Rfd.Sweep.convergence_series sweep);
        ("stable(s)", Rfd.Sweep.stable_series sweep);
        ("quiet(s)", Rfd.Sweep.quiet_series sweep);
        ("messages", Rfd.Sweep.message_series sweep);
      ]
      @
      match damping p with
      | Some params ->
          let interval = p.spec.Svc.interval in
          [ ("intended(s)", Rfd.Sweep.intended_series params ~interval ~tup ~pulses) ]
      | None -> []
    in
    print_string (Rfd.Report.series ~x_label:"pulses" ~columns ());
    (match sweep.Rfd.Sweep.failures with
    | [] -> ()
    | failures ->
        Format.printf "@.failures: %d of %d point(s) produced no clean data@."
          (List.length failures)
          (List.length sweep.Rfd.Sweep.points + List.length failures);
        List.iter (fun f -> Format.printf "  %a@." Rfd.Sweep.pp_failure f) failures);
    let crashed =
      List.exists
        (fun f -> match f.Rfd.Sweep.reason with Rfd.Sweep.Crashed _ -> true | _ -> false)
        sweep.Rfd.Sweep.failures
    in
    if crashed then exit exit_crashed
    else if sweep.Rfd.Sweep.failures <> [] then exit exit_degraded
  in
  let doc = "sweep pulse counts and print convergence/message series" in
  Cmd.v (Cmd.info "sweep" ~doc ~man:exit_doc)
    Term.(
      const action
      $ spec_term ~edge_list:true (List.filter (fun f -> f.key <> "pulses") flags)
      $ max_pulses_arg $ jobs_arg $ budget_term $ faults_term $ deadline_arg $ retries_arg
      $ journal_arg $ resume_arg)

(* ------------------------------------------------------------------ *)
(* replay / trace-gen                                                  *)

let replay_cmd =
  let action trace_file p budget partitions print_digest =
    check_partitions ~cmd:"replay" partitions;
    let trace =
      match Rfd.Update_trace.of_file trace_file with
      | Ok trace -> trace
      | Error e -> fail ~cmd:"replay" (Printf.sprintf "%s: %s" trace_file e)
      | exception Sys_error msg -> fail ~cmd:"replay" msg
    in
    let scenario = scenario ~cmd:"replay" ~workload:(Scenario.Replay trace) p in
    let head r =
      Format.printf "replayed %d trace event(s) over %d prefix(es)@.%a@."
        (Rfd.Update_trace.event_count trace)
        (Rfd.Update_trace.max_prefix trace)
        Rfd.Runner.pp_result r
    in
    simulate ~cmd:"replay" ~budget ~partitions ~print_digest ~head scenario
  in
  let trace_file_arg =
    let doc = "The rfd-trace/1 update trace to replay." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let replay_flags =
    let pulses =
      {
        (flag "pulses") with
        doc =
          "Withdrawal/announcement pulses of the measured origin. Defaults to 0: \
           the replayed trace is the traffic, the measured origin only announces \
           once and damping of the recorded prefixes is what is under study.";
      }
    in
    spec_term ~edge_list:true
      ~base:{ Svc.default_spec with pulses = 0 }
      (pulses
      :: List.map flag
           [
             "topology"; "damping"; "mode"; "policy"; "interval"; "mrai"; "seed"; "isp";
             "table-hint"; "background";
           ])
  in
  let doc = "replay a recorded rfd-trace/1 update trace as the scenario workload" in
  let man =
    exit_doc
    @ [
        `S Cmdliner.Manpage.s_description;
        `P
          "Reads an $(b,rfd-trace/1) file (one $(i,time prefix \
           announce|withdraw [origin]) event per line), validates it against \
           the topology, and schedules every recorded event during the flap \
           phase. Prefixes whose first recorded event is a withdrawal are \
           originated before the measurement starts, so the withdrawal has \
           reachability to revoke. Replays are deterministic: the same trace, \
           topology and seed produce bit-identical digests for any \
           $(b,--partitions) value.";
      ]
  in
  Cmd.v (Cmd.info "replay" ~doc ~man)
    Term.(
      const action $ trace_file_arg $ replay_flags $ budget_term $ partitions_arg
      $ print_digest_arg)

let trace_gen_cmd =
  let action { spec; _ } flappers nodes first_prefix =
    match
      Rfd.Update_trace.flappers ~seed:spec.Svc.flap_seed ~nodes ~count:flappers
        ~flaps:spec.Svc.flaps ~mean_gap:spec.Svc.flap_gap ~alpha:spec.Svc.flap_alpha
        ~first_prefix
    with
    | trace -> print_string (Rfd.Update_trace.to_string trace)
    | exception Invalid_argument msg -> fail ~cmd:"trace-gen" msg
  in
  let gen_flappers_arg =
    let doc = "Flapping prefixes to synthesize." in
    Arg.(value & opt int 100 & info [ "flappers" ] ~docv:"N" ~doc)
  in
  let nodes_arg =
    let doc =
      "Home routers to spread the flappers over (must not exceed the node \
       count of the topology the trace will be replayed on)."
    in
    Arg.(value & opt int 9 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let first_prefix_arg =
    let doc =
      "Lowest prefix id to use (ids below it are reserved: 0 is the measured \
       origin prefix, 1..B the background range of the replaying scenario)."
    in
    Arg.(value & opt int 1 & info [ "first-prefix" ] ~docv:"ID" ~doc)
  in
  let doc = "synthesize a heavy-tailed multi-origin flap trace (rfd-trace/1)" in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Writes to stdout the same seeded workload a $(b,--background-flappers) \
         run expands internally: per flapper, withdraw/announce pairs separated \
         by Pareto-distributed gaps. Piping it into $(b,rfd-sim replay) with a \
         matching topology and seed reproduces that run's digest exactly.";
    ]
  in
  Cmd.v (Cmd.info "trace-gen" ~doc ~man)
    Term.(
      const action
      $ spec_term (List.map flag [ "flaps"; "flap-gap"; "flap-alpha"; "flap-seed" ])
      $ gen_flappers_arg $ nodes_arg $ first_prefix_arg)

(* ------------------------------------------------------------------ *)
(* intended                                                            *)

let intended_cmd =
  let action p tup =
    let params = Option.value (damping p) ~default:Params.cisco in
    let pulses = p.spec.Svc.pulses and interval = p.spec.Svc.interval in
    let s = Rfd.Intended.final_state params ~pulses ~interval in
    Format.printf "parameters: %a@." Params.pp params;
    Format.printf "penalty right after the final announcement: %.1f@."
      s.Rfd.Intended.penalty;
    Format.printf "suppressed at that moment: %b@." s.Rfd.Intended.suppressed;
    Format.printf "suppression onset: %d pulses@."
      (Rfd.Intended.suppression_onset params ~interval);
    Format.printf "intended convergence time: %.1f s@."
      (Rfd.Intended.convergence_time params ~pulses ~interval ~tup)
  in
  let tup_arg =
    let doc = "Assumed plain BGP up-convergence time (seconds)." in
    Arg.(value & opt float 30. & info [ "tup" ] ~doc)
  in
  let doc = "print the Section 3 analytic (intended) damping behaviour" in
  Cmd.v (Cmd.info "intended" ~doc)
    Term.(
      const action $ spec_term (List.map flag [ "damping"; "pulses"; "interval" ]) $ tup_arg)

(* ------------------------------------------------------------------ *)
(* topo                                                                *)

(* The graph topo and metrics describe. *)
let graph ~cmd p =
  try Rfd.Runner.base_graph ~seed:p.spec.Svc.seed (topology ~cmd p)
  with Invalid_argument e -> refuse ~cmd e

let topology_seed = spec_term ~edge_list:true (List.map flag [ "topology"; "seed" ])

let topo_cmd =
  let action p relations =
    let graph = graph ~cmd:"topo" p in
    if relations then
      print_string (Rfd.Edge_list.print (Rfd.Relations.infer_by_degree graph))
    else print_string (Rfd.Edge_list.print_graph graph)
  in
  let relations_arg =
    let doc = "Annotate edges with degree-inferred AS relationships." in
    Arg.(value & flag & info [ "relations" ] ~doc)
  in
  let doc = "generate a topology and print it as an edge list" in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const action $ topology_seed $ relations_arg)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

let metrics_cmd =
  let action p =
    let graph = graph ~cmd:"metrics" p in
    let s = Rfd.Topo_metrics.summarize graph in
    Format.printf "%a@." Rfd.Topo_metrics.pp_summary s;
    (match Rfd.Topo_metrics.power_law_alpha graph with
    | Some alpha -> Format.printf "power-law tail exponent (MLE): %.2f@." alpha
    | None -> Format.printf "power-law tail exponent: n/a (tail too small)@.");
    Format.printf "degree histogram:@.";
    List.iter
      (fun (degree, count) -> Format.printf "  degree %3d: %d node(s)@." degree count)
      (Rfd.Graph.degree_histogram graph)
  in
  let doc = "print structural metrics of a topology" in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const action $ topology_seed)

(* ------------------------------------------------------------------ *)
(* query — client side of the rfd-simd daemon                          *)

let socket_arg =
  let doc = "Unix-domain socket of the rfd-simd daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let fleet_arg =
  let doc =
    "Comma-separated rfd-simd sockets forming a sharded fleet. The query is \
     routed to the shard owning its key and fails over, through per-shard \
     circuit breakers, to the next healthy shard on refusal or transport \
     error. Socket order is the shard map: every client of one fleet must \
     pass the same list in the same order."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' string)) None
    & info [ "fleet" ] ~docv:"SOCK1,SOCK2,..." ~doc)

let query_timeout_arg =
  let doc =
    "Socket send/receive timeout in seconds — also how long to wait for an \
     uncached result."
  in
  Arg.(value & opt float 300. & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let connect_retry_arg =
  let doc =
    "Keep retrying a failing connect for up to $(docv) seconds (absorbs the \
     daemon-startup race in scripts)."
  in
  Arg.(value & opt float 0. & info [ "connect-retry" ] ~docv:"SECONDS" ~doc)

let attempts_arg =
  let doc =
    "Total tries when the daemon sheds the query as overloaded, spaced by the \
     deterministic jittered backoff."
  in
  Arg.(value & opt int 5 & info [ "attempts" ] ~docv:"N" ~doc)

let stats_flag =
  let doc = "Fetch the daemon's stats JSON instead of querying." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let ping_flag =
  let doc = "Just check the daemon is alive." in
  Arg.(value & flag & info [ "ping" ] ~doc)

let query_man =
  [
    `S Cmdliner.Manpage.s_exit_status;
    `P
      "$(b,0) when a result body was printed (cache hit or fresh run); \
       $(b,1) on transport errors, invalid queries and journalled crashes; \
       $(b,2) on benign refusals — overloaded after every retry, a \
       journalled watchdog timeout, or a draining server.";
  ]

(* Shared by the single-socket and fleet paths: print the body (stdout
   stays pure JSON — CI diffs it byte-for-byte across hit, miss, restart
   and failover) and map refusal codes onto the exit-code convention. *)
let finish_query = function
  | Error e -> fail ~cmd:"query" e
  | Ok (Svc.Result { cached; body }) ->
      Format.eprintf "rfd-sim query: cache %s@."
        (if cached then "hit" else "miss");
      print_endline body
  | Ok (Svc.Refused { code; body }) -> (
      Format.eprintf "rfd-sim query: refused (%s): %s@."
        (Svc.error_code_to_string code)
        body;
      match code with
      | Svc.Overloaded | Svc.Timeout | Svc.Shutting_down | Svc.Wrong_shard ->
          exit exit_degraded
      | Svc.Invalid | Svc.Crashed -> exit exit_crashed)
  | Ok Svc.Pong | Ok (Svc.Stats _) -> fail ~cmd:"query" "unexpected response"

let query_single ~timeout ~connect_retry ~attempts ~do_ping ~do_stats socket
    spec =
  let client =
    match Rfd.Svc_client.connect ~timeout ~retry_for:connect_retry socket with
    | client -> client
    | exception e -> fail ~cmd:"query"
          (Printf.sprintf "cannot connect to %s: %s" socket (Printexc.to_string e))
  in
  Fun.protect ~finally:(fun () -> Rfd.Svc_client.close client) @@ fun () ->
  if do_ping then begin
    if Rfd.Svc_client.ping client then print_endline "pong"
    else fail ~cmd:"query" ("no pong from " ^ socket)
  end
  else if do_stats then begin
    match Rfd.Svc_client.stats client with
    | Ok body -> print_endline body
    | Error e -> fail ~cmd:"query" e
  end
  else finish_query (Rfd.Svc_client.query ~attempts client spec)

let query_fleet ~timeout ~connect_retry ~attempts ~do_ping ~do_stats sockets
    spec =
  let fleet =
    match Rfd.Svc_fleet.create ~timeout ~connect_retry sockets with
    | fleet -> fleet
    | exception Invalid_argument msg ->
        fail ~cmd:"query" ("bad --fleet: " ^ msg)
  in
  Fun.protect ~finally:(fun () -> Rfd.Svc_fleet.close fleet) @@ fun () ->
  if do_ping then begin
    let healthy = ref 0 in
    List.iteri
      (fun i socket ->
        if Rfd.Svc_fleet.ping_shard fleet i then incr healthy
        else Format.eprintf "rfd-sim query: no pong from shard %d (%s)@." i socket)
      sockets;
    Format.printf "pong %d/%d@." !healthy (List.length sockets);
    if !healthy = 0 then exit exit_crashed
    else if !healthy < List.length sockets then exit exit_degraded
  end
  else if do_stats then begin
    (* One stats JSON line per shard, in shard order. *)
    let degraded = ref false in
    List.iter
      (fun (socket, body) ->
        match body with
        | Ok body -> print_endline body
        | Error e ->
            degraded := true;
            Format.eprintf "rfd-sim query: stats from %s: %s@." socket e)
      (Rfd.Svc_fleet.stats fleet);
    if !degraded then exit exit_degraded
  end
  else finish_query (Rfd.Svc_fleet.query ~attempts fleet spec)

let query_cmd =
  let action socket fleet { spec; _ } timeout connect_retry attempts do_stats do_ping =
    match (socket, fleet) with
    | Some _, Some _ -> fail ~cmd:"query" "--socket and --fleet are exclusive"
    | None, None -> fail ~cmd:"query" "one of --socket or --fleet is required"
    | Some socket, None ->
        query_single ~timeout ~connect_retry ~attempts ~do_ping ~do_stats socket
          spec
    | None, Some sockets ->
        query_fleet ~timeout ~connect_retry ~attempts ~do_ping ~do_stats sockets
          spec
  in
  let doc = "query an rfd-simd daemon (or sharded fleet) for a simulation result" in
  Cmd.v
    (Cmd.info "query" ~doc ~man:query_man)
    Term.(
      const action $ socket_arg $ fleet_arg $ spec_term flags $ query_timeout_arg
      $ connect_retry_arg $ attempts_arg $ stats_flag $ ping_flag)

(* ------------------------------------------------------------------ *)
(* journal-compact                                                     *)

let journal_compact_cmd =
  let action check path =
    if check then begin
      match Rfd.Journal.check path with
      | r ->
          Format.printf
            "checked %s: %d valid line(s), %d duplicate(s), %d corrupt \
             line(s)%s@."
            path r.Rfd.Journal.checked_valid r.Rfd.Journal.checked_duplicates
            r.Rfd.Journal.checked_corrupt
            (if r.Rfd.Journal.checked_torn then ", torn tail" else "");
          if r.Rfd.Journal.checked_corrupt > 0 then exit exit_crashed
      | exception (Failure msg | Sys_error msg) -> fail ~cmd:"journal-compact" msg
    end
    else
      match Rfd.Journal.compact path with
      | c ->
          Format.printf
            "compacted %s: kept %d entr%s, dropped %d duplicate(s), %d corrupt \
             line(s)@."
            path c.Rfd.Journal.kept
            (if c.Rfd.Journal.kept = 1 then "y" else "ies")
            c.Rfd.Journal.dropped_duplicates c.Rfd.Journal.dropped_corrupt
      | exception (Failure msg | Sys_error msg) -> fail ~cmd:"journal-compact" msg
  in
  let check_arg =
    let doc =
      "Verify only — digest-check every line and report valid / duplicate / \
       corrupt counts without writing a byte (safe on a journal a live \
       daemon holds open). Exits 1 if any corrupt line is found; a torn \
       unterminated tail (the benign kill -9 signature) is reported but is \
       not corruption."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let file_arg =
    let doc = "The rfd-journal/1 file to compact (or, with --check, verify)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let doc =
    "rewrite a sweep/daemon journal keeping only the newest line per job"
  in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Compaction is atomic (write to a temp file, fsync, rename) and \
         byte-preserving: surviving lines are copied verbatim, so results \
         replayed from the compacted journal are identical to before. Do not \
         run it while a daemon or sweep holds the journal open for writing. \
         $(b,--check) never writes and is safe at any time.";
    ]
  in
  Cmd.v
    (Cmd.info "journal-compact" ~doc ~man)
    Term.(const action $ check_arg $ file_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "route flap damping simulator (ICDCS 2005 reproduction)" in
  let info = Cmd.info "rfd-sim" ~version:Rfd.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            replay_cmd;
            trace_gen_cmd;
            intended_cmd;
            topo_cmd;
            metrics_cmd;
            query_cmd;
            journal_compact_cmd;
          ]))
