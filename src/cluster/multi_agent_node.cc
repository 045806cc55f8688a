#include "cluster/multi_agent_node.h"

#include <utility>

namespace sol::cluster {

template class NodeCore<SimNodeBackend>;

MultiAgentNode::MultiAgentNode(sim::EventQueue& queue,
                               MultiAgentNodeConfig config)
    : NodeCore(std::move(config), queue)
{
}

}  // namespace sol::cluster
