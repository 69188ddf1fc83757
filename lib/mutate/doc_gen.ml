(* Generators for the two reference manuals, docs/INVARIANTS.md and
   docs/VARIANTS.md.

   Both are pure functions of the catalogues (no clocks, no environment):
   the invariant manual renders the [paper] and [conjuncts] metadata every
   [Core.Invariants.t] carries, the variant manual renders
   [Core.Variants.all] plus the mutation-operator catalogue.  CI re-runs
   the generators and diffs the output against the committed files, so the
   manuals cannot drift from the code. *)

let generated_banner cmd =
  Printf.sprintf
    "<!-- Generated by `gcmodel %s`.  Do not edit by hand: regenerate with\n\
    \     `dune exec bin/gcmodel.exe -- %s > %s`; CI diffs this file\n\
    \     against the generator's output. -->\n\n"
    cmd cmd
    (match cmd with
    | "doc-invariants" -> "docs/INVARIANTS.md"
    | "doc-certificates" -> "docs/CERTIFICATES.md"
    | _ -> "docs/VARIANTS.md")

(* The enumeration configuration for the operator catalogue: every site
   present (all heap ops on, two cycles so the hs1 store fence is armed) —
   the same configuration [Campaign.default_mutants] enumerates against. *)
let fat_cfg =
  { Core.Config.default with max_cycles = 2; max_mut_ops = 3; buf_bound = 2 }

(* -- docs/INVARIANTS.md ---------------------------------------------------- *)

let invariants_md () =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s" (generated_banner "doc-invariants");
  add "# Invariant reference\n\n";
  add
    "The checker evaluates this catalogue at every reachable state (`lib/core/invariants.ml`; \
     run a scenario with `gcmodel explore`).  The first three are the **safety** properties — \
     the paper's headline theorem and its operational manifestations; the rest are the \
     **auxiliary** invariants of the proof, guarded exactly as the paper guards them.  Each \
     invariant decomposes into named conjuncts: a violation witness names the failing \
     conjunct, and the mutation campaign's kill-matrix (`gcmodel campaign`) uses the same \
     names as columns.\n\n";
  let invs = Core.Invariants.all Core.Config.default in
  add "| # | invariant | kind | paper |\n|---|---|---|---|\n";
  List.iteri
    (fun i (inv : Core.Invariants.t) ->
      add "| %d | [`%s`](#%s) | %s | %s |\n" (i + 1) inv.Core.Invariants.name
        inv.Core.Invariants.name
        (if inv.Core.Invariants.safety then "safety" else "auxiliary")
        (if inv.Core.Invariants.paper = "" then "—" else inv.Core.Invariants.paper))
    invs;
  add "\n";
  List.iter
    (fun (inv : Core.Invariants.t) ->
      add "## %s\n\n" inv.Core.Invariants.name;
      add "- **kind:** %s\n" (if inv.Core.Invariants.safety then "safety" else "auxiliary");
      if inv.Core.Invariants.paper <> "" then
        add "- **paper:** %s\n" inv.Core.Invariants.paper;
      add "- **code:** `lib/core/invariants.ml`, search for `~name:\"%s\"`\n\n"
        inv.Core.Invariants.name;
      add "%s\n\n" inv.Core.Invariants.doc;
      (match inv.Core.Invariants.conjuncts with
      | [] -> ()
      | cs ->
        add "| conjunct | statement |\n|---|---|\n";
        List.iter
          (fun (c : Core.Invariants.conjunct) ->
            add "| `%s` | %s |\n" c.Core.Invariants.label c.Core.Invariants.statement)
          cs;
        add "\n"))
    invs;
  Buffer.contents b

(* -- docs/VARIANTS.md ------------------------------------------------------ *)

let expectation_string = function
  | Core.Variants.Safe -> "safe"
  | Core.Variants.Unsafe -> "unsafe"
  | Core.Variants.Conjectured_safe -> "conjectured-safe"

let is_ablation (v : Core.Variants.t) =
  List.exists (fun a -> a.Core.Variants.name = v.Core.Variants.name) Core.Variants.ablations

(* Render the minimal-witness scenario of an ablation as a concrete
   command line. *)
let witness_cmd (v : Core.Variants.t) =
  let sc = Core.Scenario.witness_for v in
  let cfg = sc.Core.Scenario.cfg in
  Printf.sprintf
    "gcmodel explore --variant %s --muts %d --refs %d --buf %d --cycles %d --ops %d --shape %s"
    v.Core.Variants.name cfg.Core.Config.n_muts cfg.Core.Config.n_refs cfg.Core.Config.buf_bound
    cfg.Core.Config.max_cycles cfg.Core.Config.max_mut_ops sc.Core.Scenario.shape.Gcheap.Shapes.name

let variants_md () =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s" (generated_banner "doc-variants");
  add "# Variant and mutation-operator reference\n\n";
  add
    "Two granularities of perturbation feed the checker.  **Variants** (`lib/core/variants.ml`) \
     change a whole mechanism — the hand-written ablations each delete one load-bearing \
     device, the Section 4 observations encode the paper's conjectured-safe optimisations.  \
     **Mutation operators** (`lib/mutate/operators.ml`) perturb a single program point; the \
     campaign (`gcmodel campaign`) checks every one and renders the kill-matrix.\n\n";
  add "## Collector variants\n\n";
  add "| variant | expectation | description |\n|---|---|---|\n";
  List.iter
    (fun (v : Core.Variants.t) ->
      add "| [`%s`](#%s) | %s | %s |\n" v.Core.Variants.name v.Core.Variants.name
        (expectation_string v.Core.Variants.expectation)
        v.Core.Variants.description)
    Core.Variants.all;
  add "\n";
  List.iter
    (fun (v : Core.Variants.t) ->
      add "### %s\n\n" v.Core.Variants.name;
      add "- **expectation:** %s\n" (expectation_string v.Core.Variants.expectation);
      add "- **description:** %s\n" v.Core.Variants.description;
      (if is_ablation v then begin
         add
           "- **run (minimal witness — the checker must find a counterexample):**\n\n\
           \  ```sh\n\
           \  %s\n\
           \  ```\n"
           (witness_cmd v)
       end
       else
         add "- **run:** `gcmodel explore --variant %s` (expected to close with no violation)\n"
           v.Core.Variants.name);
      add "\n")
    Core.Variants.all;
  add "## Mutation operators\n\n";
  add
    "Each operator family perturbs one kind of program point; a mutant is one instance (one \
     fence, one barrier, one handshake round...).  Mutants marked *equivalent* are sites \
     where the owning process's store buffer is provably empty — an MFENCE there is a no-op \
     under the model's TSO semantics, so the campaign expects a survivor, and a kill would \
     falsify the analysis.  The armed drop-fence sites come out as exactly the four store \
     fences in front of the initialization handshakes: the four MFENCEs the paper's \
     Section 2.4 requires.\n\n";
  add
    "Run one family with `gcmodel campaign --operators FAMILY`, everything with \
     `gcmodel campaign`, or a single mutant interactively with \
     `gcmodel explore --mutant NAME` / `gcmodel walk --mutant NAME` / \
     `gcmodel explain --mutant NAME`.\n\n";
  List.iter
    (fun fam ->
      let ms = Operators.of_family fat_cfg fam in
      add "### %s\n\n" fam;
      (match ms with
      | [] -> add "No sites under the reference configuration.\n\n"
      | m :: _ ->
        add "%s.\n\n"
          (String.capitalize_ascii
             (match fam with
             | "drop-fence" -> "replace one MFENCE by a skip"
             | "weaken-cas" -> "drop the LOCK around one mark's compare-and-swap"
             | "elide-barrier" -> "skip one write-barrier instance"
             | "skip-hs-wait" -> "signal one handshake round without awaiting the acks"
             | "swap-mark-loads" -> "reorder one mark operation's first two loads"
             | "alloc-color-off" -> "allocate with the opposite of the allocation color"
             | _ -> m.Operators.doc));
        add "| mutant | expected | rationale |\n|---|---|---|\n";
        List.iter
          (fun (m : Operators.t) ->
            add "| `%s` | %s | %s |\n" m.Operators.name
              (if m.Operators.expected_equivalent then "equivalent (survives)" else "**killed**")
              m.Operators.rationale)
          ms;
        add "\n"))
    Operators.families;
  add "### variant (ablations as mutants)\n\n";
  add
    "The five hand-written ablations also run in every campaign as `variant:*` mutants; the \
     campaign asserts all five are killed, pinning the operator machinery to the known-good \
     baseline.\n";
  Buffer.contents b

(* -- docs/CERTIFICATES.md --------------------------------------------------- *)

let certificates_md () =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s" (generated_banner "doc-certificates");
  add "# Certificate format\n\n";
  add
    "A **certificate** is the proof witness a closed, violation-free exploration leaves \
     behind: the full reach table of the run, bound to the exact model configuration, in a \
     form an independent validator can check without ever running the explorer.  `gcmodel \
     explore --certificate=DIR` writes one; `gcmodel recheck DIR` validates it; `gcmodel \
     certdiff A B` compares two.  The implementation is `lib/certify`; the soundness \
     argument is DESIGN.md section 14.\n\n";
  add "## Directory layout\n\n";
  add
    "A certificate is a directory of exactly two files:\n\n\
     | file | contents |\n\
     |---|---|\n\
     | `CERT.json` | the header: format tag, configuration binding, reduction mode, \
     invariant catalogue, closure obligations, root fingerprint, counts, omission bound, \
     table digest, and \
     the certified instance (scenario and invariant selection) |\n\
     | `table.seg` | the reach table: one segment in `lib/store`'s delta-compressed \
     `GCSEG001` format, all entries globally sorted by fingerprint |\n\n\
     The header is written after the table, so an interrupted writer never leaves a \
     directory that parses as a certificate.\n\n";
  add "## `CERT.json`\n\n";
  add "| field | type | meaning |\n|---|---|---|\n";
  add
    "| `format` | string | format tag, `%s`; the validator refuses any other value, naming \
     it (`GCCERT001` headers stored the producing run's flags instead of the scenario; \
     `GCCERT002` tables hold fingerprints of the previous, per-character fingerprint \
     scheme) |\n"
    Certify.Certificate.format_tag;
  add
    "| `config_hash` | string | MD5 (hex) of `Config.describe` — a serialization of *every* \
     configuration field (the serializer destructures the record exhaustively, so adding a \
     field without extending it is a compile error) |\n";
  add "| `reduce` | string | reduction mode the table is the quotient of: `none`, `sym`, `por` or `all` |\n";
  add "| `invariants` | string list | the invariant catalogue, in evaluation order (verdict indices refer to it) |\n";
  add "| `obligations` | string list | the closure obligations the certificate claims (below); must cover all four |\n";
  add "| `root_fp` | int | fingerprint of the canonical initial state |\n";
  add "| `states` | int | table entry count |\n";
  add
    "| `omission_bound` | number | n²/2⁶⁴ for the n = `states` entries: the birthday bound \
     on the probability that hash compaction merged two distinct states, i.e. that some \
     state was never explored (each of the n(n-1)/2 pairs collides with probability \
     2⁻⁶³).  Derived from `states`; a header whose value disagrees is rejected |\n";
  add "| `max_depth` | int | largest depth stamp in the table |\n";
  add "| `table_digest` | string | MD5 (hex) of the `table.seg` bytes |\n";
  add
    "| `config` | object | the certified instance: `scenario` is `Core.Scenario.to_json` — \
     `label`, `config` (the `Config.describe` string whose MD5 is `config_hash`) and `shape` \
     (heap-shape name) — and `safety_only` is the invariant selection (`true`: the safety \
     subset; `false`: the full catalogue).  `gcmodel recheck` rebuilds the model with \
     `Core.Scenario.of_json` (`Config.of_describe` inverts `describe` exactly).  No run \
     parameter — worker count, state cap, memory budget, checkpoint cadence — is stored |\n\n";
  add "## `table.seg`\n\n";
  add
    "One `GCSEG001` segment (magic, varint header with Bloom filter and block index, \
     delta-compressed 256-entry blocks — see `lib/store/segment.mli`), written with \
     `shard = 0`, `seq = 0`.  Entries are sorted by fingerprint and carry:\n\n\
     | field | certificate meaning |\n\
     |---|---|\n\
     | `fp` | the state's canonical fingerprint (never 0) |\n\
     | `parent` | zeroed — certificates record reach, not ancestry |\n\
     | `event` | zeroed |\n\
     | `meta` | packed 32-bit word: bits 0-22 BFS depth, bits 23-30 verdict (violated \
     invariant index + 1, so 0 = pass), bit 31 expanded (always set) |\n\n\
     A certifiable table has verdict `pass` in every entry: unsafe or truncated runs are \
     refused at write time, and the validator independently rejects any entry carrying a \
     violation verdict.\n\n";
  add "## Obligations\n\n";
  add
    "The `obligations` field names what the certificate claims and the validator \
     discharges.  A header omitting any of them is rejected (`missing closure \
     obligation`): a certificate must not claim a weaker statement than its consumer \
     believes was checked.\n\n";
  add "| obligation | claim | discharged by |\n|---|---|---|\n";
  add
    "| `root` | the canonical initial state is in the table at depth 0 | recomputing its \
     fingerprint from the rebuilt model |\n";
  add
    "| `closure` | every entry's successor set is in the table | regenerating each state's \
     successors (through the same reduction's ample-set function) and probing table \
     membership |\n";
  add
    "| `depths` | every entry's depth stamp is its BFS distance from the root | a \
     first-arrival FIFO BFS over the regenerated graph |\n";
  add
    "| `verdicts` | every entry passes the full invariant catalogue | re-evaluating all %d \
     invariants on every state |\n\n"
    (List.length (Core.Invariants.all Core.Config.default));
  add
    "The validator additionally checks **coverage** — every table entry is reached by the \
     regenerated BFS — making the table exactly the reachable quotient set: no missing \
     states, no padding.\n\n";
  add "## Determinism\n\n";
  add
    "`table.seg` is a function of (configuration, heap shape, reduction mode) alone.  \
     `CERT.json` adds only the scenario label and the invariant selection, and no run \
     parameter, so two runs with the same instance flags (`--variant`, `--mutant`, \
     `--disable`, `--shape` and the bounds), the same `--safety-only` and the same \
     `--reduce` write `cmp`-identical `CERT.json` and `table.seg`, whatever their `--jobs`, \
     `--max-states` (as long as the run closes), `--mem-budget`, `--spill-dir` or \
     `--checkpoint` settings.  Certificates of one configuration under different labels \
     (a campaign survivor and the equivalent `explore --mutant` run, say) share \
     `table.seg` and differ only in `config.scenario.label`.  A `--jobs 1` producer dumps the explorer's seen-set directly (the \
     one-worker engine is a FIFO BFS, so its depth stamps are BFS distances).  A `--jobs > 1` \
     producer re-derives the table by running the same engine at `--jobs 1` with no state \
     cap, because parallel schedules can differ in which representative of a symmetry class \
     they visit at the local-automorphism boundary (DESIGN.md section 14).  `gcmodel certdiff` \
     between certificates of the same instance therefore reports `identical`, and CI \
     checks both that and `cmp` on both files between a `--jobs 1` and a `--jobs 2` \
     producer.\n\n";
  add "## Trust\n\n";
  add
    "`table_digest` catches accidental corruption cheaply; it is **not** a signature and \
     carries no trust.  Soundness never rests on it: the validator re-derives every claim \
     semantically from the rebuilt model, so a consistently tampered certificate still \
     fails closure, depth, verdict or coverage revalidation.  The trusted base of `gcmodel \
     recheck` is the model's step function, the invariant catalogue and the reduction — \
     the same base the soundness argument already assumes — plus `lib/certify`'s ~200-line \
     validator; no explorer code is in it.\n\n";
  add "## Commands\n\n";
  add
    "```\n\
     # write a certificate (refused on truncated or violating runs)\n\
     gcmodel explore --muts 2 --refs 2 --ops 1 --certificate certs/two-mutators\n\n\
     # validate it independently (exit 1 on any mismatch, naming the offending\n\
     # fingerprint or header field)\n\
     gcmodel recheck certs/two-mutators\n\n\
     # compare two certificates structurally (exit 0 iff identical)\n\
     gcmodel certdiff certs/two-mutators certs/two-mutators.new\n\n\
     # close surviving equivalent mutants by certificate\n\
     gcmodel campaign --certificates certs/campaign\n\
     ```\n";
  Buffer.contents b
