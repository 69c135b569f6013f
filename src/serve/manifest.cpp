#include "serve/manifest.hpp"

#include <fstream>
#include <istream>
#include <sstream>

#include "io/chunked.hpp"
#include "io/instance_io.hpp"
#include "util/cli.hpp"
#include "util/tunables.hpp"

namespace psdp::serve {

namespace {

core::ProbeSolver probe_from_name(const std::string& name) {
  if (name == "decision") return core::ProbeSolver::kDecision;
  if (name == "phased") return core::ProbeSolver::kPhased;
  if (name == "bucketed") return core::ProbeSolver::kBucketed;
  PSDP_CHECK(false, str("unknown probe solver '", name,
                        "' (decision | phased | bucketed)"));
  return core::ProbeSolver::kDecision;  // unreachable
}

/// Builder loading `path` at resolve time. Factorized paths are sniffed
/// for the chunked container magic and dispatched to the shard-at-a-time
/// loader; `shards` > 0 requests that partition on the loaded instance
/// (text or chunked, overriding a chunked file's stored cuts).
ArtifactCache::Builder path_builder(JobKind kind, const std::string& path,
                                    Index shards) {
  return [kind, path, shards] {
    switch (kind) {
      case JobKind::kPackingDense:
        return prepare_packing(io::load_packing(path));
      case JobKind::kPackingFactorized: {
        if (io::is_chunked_instance_file(path)) {
          return prepare_factorized(
              io::load_factorized_chunked(path, {}, shards));
        }
        return prepare_factorized(io::load_factorized(path, shards));
      }
      case JobKind::kCovering:
        return prepare_covering(io::load_covering(path));
      case JobKind::kPackingLp:
        return prepare_lp(io::load_lp(path));
    }
    PSDP_CHECK(false, "serve: unreachable job kind");
    return PreparedInstance{};
  };
}

}  // namespace

ManifestLineKind parse_manifest_line(const std::string& raw,
                                     const std::string& source,
                                     Index line_number, JobSpec* job) {
  std::string line = raw;
  // Strip comments: '#' starts one only at line start or after
  // whitespace. A '#' embedded in a token (label=p99#high, an id with a
  // fragment) is data -- the old find-any-'#' rule silently truncated
  // such values and then quoted the truncated line in error messages.
  for (std::size_t at = 0; at < line.size(); ++at) {
    if (line[at] == '#' &&
        (at == 0 || line[at - 1] == ' ' || line[at - 1] == '\t')) {
      line.resize(at);
      break;
    }
  }
  std::istringstream fields(line);
  std::string kind_name;
  if (!(fields >> kind_name)) return ManifestLineKind::kBlank;

  const auto fail = [&](const std::string& what) {
    throw InvalidArgument(
        str(source, ":", line_number, ": ", what, " in '", line, "'"));
  };

  // `set key=value ...` lines apply tunable-registry overrides (see
  // util/tunables.hpp) to the process-wide registry as they are read, so
  // they land after env and CLI overrides and before any job on a later
  // line runs: "set lanes=2" at the top of a manifest tunes the whole
  // batch. Unknown names and out-of-range values get the registry's
  // named errors plus the manifest location.
  if (kind_name == "set") {
    std::string assignment;
    bool any = false;
    while (fields >> assignment) {
      const std::size_t eq = assignment.find('=');
      if (eq == std::string::npos) {
        fail(str("expected key=value, got '", assignment, "'"));
      }
      try {
        util::tunables().set_named(assignment.substr(0, eq),
                                   assignment.substr(eq + 1));
      } catch (const InvalidArgument& e) {
        fail(e.what());
      }
      any = true;
    }
    if (!any) fail("set line without assignments");
    return ManifestLineKind::kSet;
  }

  PSDP_CHECK(job != nullptr, "serve: parse_manifest_line needs a job slot");
  *job = JobSpec{};
  try {
    job->kind = job_kind_from_name(kind_name);
  } catch (const InvalidArgument& e) {
    fail(e.what());
  }
  std::string path;
  if (!(fields >> path)) fail("missing instance path");
  job->instance = str(kind_name, ":", path);
  job->label = str(path, ":", line_number);
  Index shards = 0;       // 0 = the loader's default partition
  bool explicit_id = false;

  std::string option;
  while (fields >> option) {
    const std::size_t eq = option.find('=');
    if (eq == std::string::npos) {
      fail(str("expected key=value, got '", option, "'"));
    }
    const std::string key = option.substr(0, eq);
    const std::string value = option.substr(eq + 1);
    try {
      // util::detail::parse_value supplies the typed InvalidArgument
      // errors ("cannot parse real 'bogus'"); fail() adds the location.
      if (key == "eps") {
        job->options.eps = util::detail::parse_value<Real>(value);
      } else if (key == "decision-eps") {
        job->options.decision_eps = util::detail::parse_value<Real>(value);
      } else if (key == "probe") {
        job->options.probe_solver = probe_from_name(value);
      } else if (key == "sketch-rows") {
        const Index rows = util::detail::parse_value<Index>(value);
        PSDP_CHECK(rows >= 0, str("sketch-rows must be >= 0, got ", value));
        job->options.decision.dot_options.sketch_rows_override = rows;
      } else if (key == "label") {
        job->label = value;
      } else if (key == "id") {
        PSDP_CHECK(!value.empty(), "id must be non-empty");
        job->instance = value;
        explicit_id = true;
      } else if (key == "shards") {
        PSDP_CHECK(job->kind == JobKind::kPackingFactorized,
                   str("shards applies to packing-factorized jobs, not ",
                       kind_name));
        shards = util::detail::parse_value<Index>(value);
        PSDP_CHECK(shards >= 0, str("shards must be >= 0, got ", value));
      } else if (key == "wide") {
        job->work = util::detail::parse_value<bool>(value)
                        ? std::numeric_limits<Index>::max() / 2
                        : 0;
      } else if (key == "priority") {
        job->priority = util::detail::parse_value<int>(value);
      } else if (key == "deadline-ms") {
        // 0 is a real (immediately-due) deadline, not "none": the spec
        // field is an optional, and any parsed value engages it.
        const double deadline = util::detail::parse_value<double>(value);
        PSDP_CHECK(deadline >= 0,
                   str("deadline-ms must be >= 0, got ", value));
        job->deadline_ms = deadline;
      } else {
        PSDP_CHECK(false, str("unknown manifest key '", key, "'"));
      }
    } catch (const InvalidArgument& e) {
      fail(e.what());
    }
  }
  job->builder = path_builder(job->kind, path, shards);
  // Different partitions of one file are different prepared artifacts:
  // the default cache key carries the shards request so a shards=4 job
  // never resolves to a cached shards=1 instance. An explicit id= takes
  // the caller's word that sharing is intended.
  if (shards > 0 && !explicit_id) {
    job->instance = str(job->instance, ":shards=", shards);
  }
  return ManifestLineKind::kJob;
}

SolveBatch read_manifest(std::istream& in, const std::string& source) {
  SolveBatch batch;
  std::string line;
  Index line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    JobSpec job;
    if (parse_manifest_line(line, source, line_number, &job) ==
        ManifestLineKind::kJob) {
      batch.add(std::move(job));
    }
  }
  PSDP_CHECK(!batch.empty(),
             str(source, ": no jobs (every line blank or a comment)"));
  return batch;
}

SolveBatch load_manifest(const std::string& path) {
  std::ifstream in(path);
  PSDP_CHECK(in.is_open(), str("serve: cannot open manifest '", path, "'"));
  return read_manifest(in, path);
}

}  // namespace psdp::serve
