(* Tests for the edge-list text format. *)

module Graph = Rfd_topology.Graph
module Relations = Rfd_topology.Relations
module Edge_list = Rfd_topology.Edge_list

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let err = function
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e

let test_parse_plain () =
  let g = ok (Edge_list.parse_graph "0 1\n1 2\n") in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "edges" 2 (Graph.num_edges g)

let test_parse_comments_blanks () =
  let g = ok (Edge_list.parse_graph "# a comment\n\n0 1\n\n# another\n2 0\n") in
  Alcotest.(check int) "edges" 2 (Graph.num_edges g)

let test_parse_header () =
  let g = ok (Edge_list.parse_graph "# nodes: 10\n0 1\n") in
  Alcotest.(check int) "header raises node count" 10 (Graph.num_nodes g)

let test_parse_labels () =
  let r = ok (Edge_list.parse "0 1 c2p\n1 2 p2c\n0 2 p2p\n") in
  Alcotest.(check bool) "0 customer of 1" true
    (Relations.side r ~me:1 ~neighbour:0 = Relations.Customer);
  Alcotest.(check bool) "2 customer of 1" true
    (Relations.side r ~me:1 ~neighbour:2 = Relations.Customer);
  Alcotest.(check bool) "0-2 peer" true (Relations.side r ~me:0 ~neighbour:2 = Relations.Peer)

let test_parse_tabs () =
  let g = ok (Edge_list.parse_graph "0\t1\n") in
  Alcotest.(check int) "tab separated" 1 (Graph.num_edges g)

let test_parse_errors () =
  let e = err (Edge_list.parse_graph "0 x\n") in
  Alcotest.(check bool) "line number reported" true (String.length e > 0 && e.[5] = '1');
  ignore (err (Edge_list.parse_graph "0\n"));
  ignore (err (Edge_list.parse "0 1 weird\n"));
  ignore (err (Edge_list.parse_graph "# nodes: -3\n0 1\n"));
  ignore (err (Edge_list.parse_graph "3 3\n"))

let test_round_trip () =
  let doc = "# nodes: 4\n0 1 c2p\n0 2 p2p\n1 3 p2c\n" in
  let r = ok (Edge_list.parse doc) in
  let printed = Edge_list.print r in
  let r2 = ok (Edge_list.parse printed) in
  Alcotest.(check bool) "graphs equal" true
    (Graph.equal (Relations.graph r) (Relations.graph r2));
  Alcotest.(check string) "stable print" printed (Edge_list.print r2)

let test_print_graph () =
  let g = Graph.of_edges ~num_nodes:3 [ (2, 0) ] in
  Alcotest.(check string) "print" "# nodes: 3\n0 2\n" (Edge_list.print_graph g)

let test_empty_document () =
  let g = ok (Edge_list.parse_graph "") in
  Alcotest.(check int) "no nodes" 0 (Graph.num_nodes g)

(* Node ids and headers are bounded: a few bytes must not size a graph of
   a billion nodes. The largest allowed id is still accepted. *)
let test_oversized_id () =
  Alcotest.(check string) "id beyond the limit"
    "line 2: node id 1000000000 exceeds the limit of 1000000 nodes"
    (err (Edge_list.parse_graph "0 1\n1000000000 1\n"));
  Alcotest.(check string) "labelled form too"
    "line 1: node id 1000000 exceeds the limit of 1000000 nodes"
    (err (Edge_list.parse "3 1000000 c2p\n"));
  let g = ok (Edge_list.parse_graph (Printf.sprintf "0 %d\n" (Edge_list.max_nodes - 1))) in
  Alcotest.(check int) "largest id accepted" Edge_list.max_nodes (Graph.num_nodes g)

let test_oversized_header () =
  Alcotest.(check string) "header beyond the limit"
    "line 3: node-count header 1000001 exceeds the limit of 1000000 nodes"
    (err (Edge_list.parse_graph "0 1\n# comment\n# nodes: 1000001\n"));
  ignore (err (Edge_list.parse "# nodes: 4611686018427387903\n0 1\n"))

let suite =
  [
    Alcotest.test_case "parse plain edges" `Quick test_parse_plain;
    Alcotest.test_case "comments and blanks" `Quick test_parse_comments_blanks;
    Alcotest.test_case "nodes header" `Quick test_parse_header;
    Alcotest.test_case "relationship labels" `Quick test_parse_labels;
    Alcotest.test_case "tab separators" `Quick test_parse_tabs;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "print graph" `Quick test_print_graph;
    Alcotest.test_case "empty document" `Quick test_empty_document;
    Alcotest.test_case "oversized node id" `Quick test_oversized_id;
    Alcotest.test_case "oversized header" `Quick test_oversized_header;
  ]
