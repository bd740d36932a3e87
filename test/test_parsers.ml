(* Every parser of outside input must survive arbitrary bytes: it answers
   Ok/Error (or Some/None), never raises. Inputs are raw random bytes, or
   a valid document with random bytes spliced in, so the fuzz also reaches
   past each parser's first token. *)

module Edge_list = Rfd_topology.Edge_list
module Update_trace = Rfd_experiment.Trace
module Journal = Rfd_experiment.Journal
module Protocol = Rfd_service.Protocol

let parsers =
  [
    ("Update_trace.of_string", fun s -> ignore (Update_trace.of_string s));
    ("Protocol.parse_request", fun s -> ignore (Protocol.parse_request s));
    ("Protocol.parse_response", fun s -> ignore (Protocol.parse_response s));
    ("Protocol.topo_of_string", fun s -> ignore (Protocol.topo_of_string s));
    ("Journal.parse_line", fun s -> ignore (Journal.parse_line s));
    ("Edge_list.parse", fun s -> ignore (Edge_list.parse s));
    ("Edge_list.parse_graph", fun s -> ignore (Edge_list.parse_graph s));
  ]

let seeds =
  [
    "rfd-trace/1\n# comment\n0 7 withdraw 3\n4.25 7 announce 3\n60 9 withdraw\n";
    "rfd-svc/1 query topology=mesh:3x3 pulses=2 damping=cisco seed=7";
    "rfd-svc/1 ok miss {\"key\":\"k\",\"digest\":\"d\"}";
    "rfd-svc/1 error invalid bad topology";
    "mesh:4x4";
    "internet:50,2";
    Journal.render_line ~key:"0123abcd" (Journal.Crashed "boom");
    "# nodes: 5\n0 1 c2p\n1 2 p2c\n2 3 p2p\n";
  ]

let splice =
  QCheck.Gen.(
    let bytes = string_size ~gen:char (int_range 0 40) in
    oneofl seeds >>= fun seed ->
    int_range 0 (String.length seed) >>= fun at ->
    int_range 0 8 >>= fun cut ->
    bytes >|= fun junk ->
    let cut = min cut (String.length seed - at) in
    String.sub seed 0 at ^ junk ^ String.sub seed (at + cut) (String.length seed - at - cut))

let input =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(oneof [ string_size ~gen:char (int_range 0 200); splice ])

let prop_no_parser_raises =
  QCheck.Test.make ~count:5000 ~name:"no parser raises on arbitrary bytes" input (fun s ->
      List.for_all
        (fun (name, parse) ->
          match parse s with
          | () -> true
          | exception e -> QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))
        parsers)

(* The journal digest covers the whole line: one flipped bit anywhere in a
   valid line makes it unreadable rather than a different valid entry. *)
let prop_journal_bit_flip =
  let gen =
    QCheck.Gen.(
      triple (string_size ~gen:printable (int_range 1 12)) (string_size (int_range 0 30)) nat)
  in
  QCheck.Test.make ~count:2000 ~name:"journal line with one flipped bit is rejected"
    (QCheck.make ~print:QCheck.Print.(triple string string int) gen)
    (fun (seed, message, bit) ->
      let key = Digest.to_hex (Digest.string seed) in
      let line = Journal.render_line ~key (Journal.Crashed message) in
      let line = String.sub line 0 (String.length line - 1) in
      let bit = bit mod (8 * String.length line) in
      let flipped = Bytes.of_string line in
      Bytes.set flipped (bit / 8)
        (Char.chr (Char.code line.[bit / 8] lxor (1 lsl (bit mod 8))));
      Journal.parse_line line <> None && Journal.parse_line (Bytes.to_string flipped) = None)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_parser_raises;
    QCheck_alcotest.to_alcotest prop_journal_bit_flip;
  ]
