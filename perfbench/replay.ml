(* Layer replays for the traced runs: set-up and update work re-run on
   the benchmark's own instances of each layer, on the same inputs the
   deployment used, so each layer's share can be timed on its own. *)

open Lbq_geo
open Lbq_core
open Common
module Crt = Lbq_numth.Crt
module Gr = Lbq_pir.Gr
module Ot = Lbq_ot.Ot
module Wexp = Lbq_bignum.Wexp
module Z = Lbq_bignum.Z
module Drbg = Lbq_crypto.Drbg

(* The CRT congruences of the cells [idqs] (block, prime power), read
   from the server's current ciphertexts. *)
let congruences server idqs =
  let plan = (Server.public_info server).Server.plan in
  List.map
    (fun idq ->
      ( Z.of_bytes_be (Server.cell_ciphertext server idq),
        (Gr.plan_slot plan idq).Gr.pi ))
    idqs

type setup = {
  crt_build_s : float;
  wexp_recode_s : float;
  ot_init_s : float;
}

(* Server.create's three costly steps replayed layer by layer:
   Crt.Tree.build over every cell, Wexp.recode of the root, and
   Ot.Server.init over the public grid's payloads.  [own] is a
   Gr.Server built on the same records: its root must equal the
   replayed one and its predicted cost the replayed schedule's. *)
let setup ~seed server ~(own : Gr.Server.t) =
  let params = Server.params server in
  let info = Server.public_info server in
  let cells = Params.private_cells params in
  let cong = congruences server (List.init cells (fun i -> i)) in
  let builds = Array.init 3 (fun _ -> time (fun () -> Crt.Tree.build cong)) in
  let e = Crt.Tree.solve (fst builds.(0)) in
  check (Z.equal e (Gr.Server.e own))
    "replay: CRT root differs from Gr.Server.e";
  let recodes =
    Array.init 5 (fun _ -> time (fun () -> Wexp.recode (Z.to_nat e)))
  in
  check
    (Wexp.cost (fst recodes.(0)) + 1 = Gr.Server.predicted_mults own)
    "replay: recoded schedule cost disagrees with Gr.Server.predicted_mults";
  let partition = Server.partition server in
  let payloads =
    Array.init params.Params.public_rows (fun row ->
        Array.init params.Params.public_cols (fun col ->
            let idq =
              Grid.associate info.Server.public_grid partition { Grid.row; col }
            in
            Server.encode_payload ~idq
              ~key:(Server.trusted_cell_key server idq)))
  in
  let inits =
    Array.init 3 (fun k ->
        let drbg =
          Drbg.create ~domain:"perfbench-ot-init"
            ~seed:(seed ^ "/" ^ string_of_int k) ()
        in
        time (fun () ->
            Ot.Server.init ~group:params.Params.group ~rand:(Drbg.rand drbg)
              payloads))
  in
  {
    crt_build_s = median (Array.map snd builds);
    wexp_recode_s = median (Array.map snd recodes);
    ot_init_s = median (Array.map snd inits);
  }

(* A stream of single-cell block replacements replayed on the
   benchmark's own CRT tree and window schedule of one shard: the
   update path's two layers, timed apart.  [slots] are the shard's cells
   in slot order; [updates] are (idq, new block) in epoch order, of
   which those on the shard are applied.  The final schedule must
   encode the final root. *)
let update_path ~slots ~initial ~updates =
  let tree = Crt.Tree.build initial in
  let sched = ref (Wexp.recode (Z.to_nat (Crt.Tree.solve tree))) in
  let leaf = ref [] and refresh = ref [] in
  List.iter
    (fun (idq, block) ->
      match List.assoc_opt idq slots with
      | None -> ()
      | Some slot ->
        let (), dl = time (fun () -> Crt.Tree.update_leaf tree slot block) in
        let e = Crt.Tree.solve tree in
        let s, dr = time (fun () -> Wexp.refresh !sched (Z.to_nat e)) in
        sched := s;
        leaf := dl :: !leaf;
        refresh := dr :: !refresh)
    updates;
  let root = Crt.Tree.solve tree in
  check
    (Z.equal (Wexp.to_exponent !sched) root)
    "replay: refreshed schedule does not encode the updated CRT root";
  (root, Array.of_list !leaf, Array.of_list !refresh)
