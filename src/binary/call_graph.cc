#include "binary/call_graph.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hp
{

CallGraph::CallGraph(const Program &program)
    : program_(program)
{
    const std::size_t n = program.numFunctions();
    children_.resize(n);
    parents_.resize(n);

    for (const Function &fn : program.functions()) {
        for (const BodyOp &op : fn.body) {
            if (op.kind != OpKind::CallSite)
                continue;
            for (FuncId callee : fn.candidates(op))
                children_[fn.id].push_back(callee);
        }
    }

    // Collapse duplicate edges so the analysis passes see a simple graph.
    for (std::size_t f = 0; f < n; ++f) {
        auto &kids = children_[f];
        std::sort(kids.begin(), kids.end());
        kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
        for (FuncId callee : kids)
            parents_[callee].push_back(static_cast<FuncId>(f));
    }

    for (std::size_t f = 0; f < n; ++f) {
        if (parents_[f].empty())
            roots_.push_back(static_cast<FuncId>(f));
    }
}

void
CallGraph::computeSccs() const
{
    if (!scc_.empty() || children_.empty())
        return;

    // Iterative Tarjan: a recursive version overflows the stack on the
    // deep call chains our server programs contain.
    const std::size_t n = children_.size();
    constexpr std::uint32_t kUnvisited = 0xffffffff;

    scc_.assign(n, kUnvisited);
    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> lowlink(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<FuncId> stack;
    std::uint32_t next_index = 0;
    numSccs_ = 0;

    struct Frame
    {
        FuncId node;
        std::size_t childPos;
    };
    std::vector<Frame> frames;

    for (std::size_t start = 0; start < n; ++start) {
        if (index[start] != kUnvisited)
            continue;
        frames.push_back({static_cast<FuncId>(start), 0});
        while (!frames.empty()) {
            Frame &fr = frames.back();
            FuncId v = fr.node;
            if (fr.childPos == 0) {
                index[v] = lowlink[v] = next_index++;
                stack.push_back(v);
                onStack[v] = true;
            }
            bool descended = false;
            while (fr.childPos < children_[v].size()) {
                FuncId w = children_[v][fr.childPos++];
                if (index[w] == kUnvisited) {
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                } else if (onStack[w]) {
                    lowlink[v] = std::min(lowlink[v], index[w]);
                }
            }
            if (descended)
                continue;
            if (lowlink[v] == index[v]) {
                // v is the root of an SCC; pop its members.
                for (;;) {
                    FuncId w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    scc_[w] = numSccs_;
                    if (w == v)
                        break;
                }
                ++numSccs_;
            }
            frames.pop_back();
            if (!frames.empty()) {
                FuncId parent = frames.back().node;
                lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
            }
        }
    }
}

std::uint32_t
CallGraph::sccOf(FuncId f) const
{
    computeSccs();
    panicIf(f >= scc_.size(), "sccOf: function id out of range");
    return scc_[f];
}

std::size_t
CallGraph::numSccs() const
{
    computeSccs();
    return numSccs_;
}

void
CallGraph::computeReachable() const
{
    if (!reachable_.empty() || children_.empty())
        return;
    computeSccs();

    const std::size_t n = children_.size();

    // Condensed DAG: per-SCC code size and deduplicated SCC adjacency.
    std::vector<std::uint64_t> scc_size(numSccs_, 0);
    std::vector<std::vector<std::uint32_t>> scc_children(numSccs_);
    for (std::size_t f = 0; f < n; ++f) {
        scc_size[scc_[f]] += program_.func(static_cast<FuncId>(f))
            .sizeBytes();
        for (FuncId child : children_[f]) {
            if (scc_[child] != scc_[f])
                scc_children[scc_[f]].push_back(scc_[child]);
        }
    }
    for (auto &kids : scc_children) {
        std::sort(kids.begin(), kids.end());
        kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    }

    // Per-SCC DFS over the condensation with epoch-stamped visit marks.
    // Exact (handles shared subgraphs) at O(numSccs * reachable edges),
    // which is fast for call graphs' tree-with-shared-leaves shape.
    std::vector<std::uint64_t> scc_reach(numSccs_, 0);
    std::vector<std::uint32_t> mark(numSccs_, 0xffffffff);
    std::vector<std::uint32_t> dfs;
    for (std::uint32_t s = 0; s < numSccs_; ++s) {
        std::uint64_t total = 0;
        dfs.clear();
        dfs.push_back(s);
        mark[s] = s;
        while (!dfs.empty()) {
            std::uint32_t u = dfs.back();
            dfs.pop_back();
            total += scc_size[u];
            for (std::uint32_t w : scc_children[u]) {
                if (mark[w] != s) {
                    mark[w] = s;
                    dfs.push_back(w);
                }
            }
        }
        scc_reach[s] = total;
    }

    reachable_.resize(n);
    for (std::size_t f = 0; f < n; ++f)
        reachable_[f] = scc_reach[scc_[f]];
}

const std::vector<std::uint64_t> &
CallGraph::reachableSizes() const
{
    computeReachable();
    return reachable_;
}

} // namespace hp
