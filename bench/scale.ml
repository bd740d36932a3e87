(* `scale` experiment: how far past the paper's 100-node topologies the
   simulator now reaches. Single-origin flap (3 pulses, damping everywhere)
   on Barabási–Albert graphs of increasing size, reporting wall time,
   simulator throughput and peak RSS per point.

   Peak RSS is VmHWM from /proc/self/status — a process-wide high-water
   mark, so points must run in ascending size order for the per-point
   figure to be attributable to that size (each point reports the max over
   itself and everything smaller, which ascending order makes equal to
   itself). On platforms without procfs the field is reported as 0 and the
   CI regression guard skips. *)

module Scenario = Rfd.Scenario
module Runner = Rfd.Runner
module Config = Rfd.Config
module Params = Rfd.Params
module Json = Rfd.Json

let quick_sizes = [ 1_000 ]
let paper_sizes = [ 1_000; 10_000 ]

type point = {
  nodes : int;  (** requested BA graph size (the run adds one origin stub) *)
  num_edges : int;
  partitions : int;  (** 1 = plain single-domain engine *)
  wall_seconds : float;
  sim_events : int;
  events_per_sec : float;
  message_count : int;
  routes_interned : int;
  paths_interned : int;
  peak_rss_kb : int;
  per_partition_events : int list;  (** raw counts; [] on the plain engine *)
}

let run_point (opts : Context.opts) ~partitions n =
  let config =
    {
      (Context.damping_config opts) with
      (* Single-origin runs hold ~1 prefix per session; the default hint
         (8 buckets x 5 tables per session) would dominate allocation at
         tens of thousands of low-degree routers. *)
      Config.prefix_table_hint = 2;
    }
  in
  let scenario =
    Scenario.make
      ~name:(Printf.sprintf "scale-%d" n)
      ~config ~pulses:3
      (Scenario.Internet { nodes = n; m = 2 })
  in
  (* The simulated graph: the seed's base graph plus the origin stub's link. *)
  let num_edges =
    Rfd.Graph.num_edges (Runner.base_graph ~seed:config.Config.seed scenario.Scenario.topology)
    + 1
  in
  let result, routes, paths, per_partition_events =
    if partitions <= 1 then begin
      (* The plain engine stays the baseline: its transport RNG streams —
         and therefore its exact event counts — predate the partitioned
         engine, and BENCH_scale.json history is continuous with them. *)
      let table = ref None in
      let result =
        Runner.run ~observe:(fun net -> table := Some (Rfd.Network.route_table net)) scenario
      in
      let routes, paths =
        match !table with
        | Some tbl ->
            (Rfd.Route.table_size tbl, Rfd.As_path.table_size (Rfd.Route.path_table tbl))
        | None -> (0, 0)
      in
      (result, routes, paths, [])
    end
    else begin
      let result, stats = Runner.run_partitioned ~partitions scenario in
      ( result,
        stats.Runner.routes_interned_total,
        stats.Runner.paths_interned_total,
        Array.to_list stats.Runner.per_partition_events )
    end
  in
  let wall = result.Runner.wall_seconds in
  {
    nodes = n;
    num_edges;
    partitions = (if partitions <= 1 then 1 else partitions);
    wall_seconds = wall;
    sim_events = result.Runner.sim_events;
    events_per_sec =
      (if wall > 0. then float_of_int result.Runner.sim_events /. wall else 0.);
    message_count = result.Runner.message_count;
    routes_interned = routes;
    paths_interned = paths;
    peak_rss_kb = Rfd.Procfs.peak_rss_kb ();
    per_partition_events;
  }

let point_to_json p =
  Json.Obj
    [
      ("nodes", Json.Int p.nodes);
      ("edges", Json.Int p.num_edges);
      ("partitions", Json.Int p.partitions);
      ("wall_seconds", Json.Float p.wall_seconds);
      ("sim_events", Json.Int p.sim_events);
      ("events_per_sec", Json.Float p.events_per_sec);
      ("messages", Json.Int p.message_count);
      ("routes_interned", Json.Int p.routes_interned);
      ("paths_interned", Json.Int p.paths_interned);
      ("peak_rss_kb", Json.Int p.peak_rss_kb);
      ( "per_partition_events",
        Json.List (List.map (fun e -> Json.Int e) p.per_partition_events) );
    ]

let to_json ~quick ~seed ~partitions points =
  Json.Obj
    [
      ("schema", Json.String "rfd-bench/1");
      ("experiment", Json.String "scale");
      ("scale", Json.String (if quick then "quick" else "paper"));
      ("seed", Json.Int seed);
      ("partitions", Json.Int partitions);
      ("points", Json.List (List.map point_to_json points));
    ]

let run ?sizes ?(partitions = 1) (ctx : Context.t) =
  let opts = ctx.Context.opts in
  let sizes =
    match sizes with
    | Some sizes ->
        (* Ascending order keeps per-point VmHWM attributable (see above). *)
        List.sort_uniq Int.compare sizes
    | None -> if opts.Context.quick then quick_sizes else paper_sizes
  in
  print_newline ();
  Printf.printf "== scale: single-origin flap on Barabási–Albert graphs%s ==\n"
    (if partitions > 1 then Printf.sprintf " (%d partitions)" partitions else "");
  (* stdout mirrors the CSV/JSON columns — paths_interned included (it used
     to be silently dropped from the table while both files carried it). *)
  Printf.printf "%8s %8s %10s %12s %12s %10s %10s %10s %12s\n" "nodes" "edges" "wall(s)"
    "sim events" "events/s" "messages" "routes" "paths" "peakRSS(MB)";
  let points =
    List.map
      (fun n ->
        let p = run_point opts ~partitions n in
        Printf.printf "%8d %8d %10.2f %12d %12.0f %10d %10d %10d %12.1f\n%!" p.nodes
          p.num_edges p.wall_seconds p.sim_events p.events_per_sec p.message_count
          p.routes_interned p.paths_interned
          (float_of_int p.peak_rss_kb /. 1024.);
        p)
      sizes
  in
  Context.write_csv ctx ~name:"scale"
    ~header:
      [
        "nodes";
        "edges";
        "partitions";
        "wall_seconds";
        "sim_events";
        "events_per_sec";
        "messages";
        "routes_interned";
        "paths_interned";
        "peak_rss_kb";
      ]
    ~rows:
      (List.map
         (fun p ->
           [
             string_of_int p.nodes;
             string_of_int p.num_edges;
             string_of_int p.partitions;
             Printf.sprintf "%.4f" p.wall_seconds;
             string_of_int p.sim_events;
             Printf.sprintf "%.1f" p.events_per_sec;
             string_of_int p.message_count;
             string_of_int p.routes_interned;
             string_of_int p.paths_interned;
             string_of_int p.peak_rss_kb;
           ])
         points);
  points

let write_json ctx ~file ?(partitions = 1) points =
  let opts = ctx.Context.opts in
  Json.write_file file
    (to_json ~quick:opts.Context.quick ~seed:opts.Context.seed ~partitions points);
  Printf.printf "[scale baseline written to %s]\n" file
